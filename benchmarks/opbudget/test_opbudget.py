"""Self-test of the opbudget harness (not part of tier 1; run explicitly).

    PYTHONPATH=src python -m pytest benchmarks/opbudget/test_opbudget.py -q

Checks the harness, not the program: smoke sizes, a few hundred ops per
workload.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import time
import types

import pytest

from benchmarks.opbudget import __main__ as ledger_main
from benchmarks.opbudget import compare, harness, stats
from benchmarks.opbudget.spans import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Counts that must repeat bit for bit for a fixed seed and step count.
EXACT_LAYER_COUNTS = {
    "typing_1w": ("jupiter.nary.ot_per_op", "ot.transform.calls"),
    "sim_4w": (
        "jupiter.nary.ot_per_op",
        "jupiter.nary.nodes_max",
        "ot.transform.calls",
    ),
}
#: A stand-in layer for the tracer test; the tracer only patches
#: modules named ``repro*``, and calls must go through module globals.
TRACED_MODULE = """
import asyncio, time

def leaf():
    time.sleep(0.002)

def outer():
    time.sleep(0.001)
    leaf()

async def suspended():
    leaf()
    await asyncio.sleep(0.01)
"""


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("opbudget") / "ledger.json"
    started = time.monotonic()
    assert ledger_main.main(["--smoke", "--out", str(out)]) == 0
    elapsed = time.monotonic() - started
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), elapsed


def test_smoke_ledger_names_match_the_contract(smoke_ledger):
    ledger, elapsed = smoke_ledger
    spec = harness.contract()
    assert list(ledger["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in ledger["workloads"].items():
        assert NAME.match(name)
        assert list(entry["end_to_end"]) == [
            m["name"] for m in spec["end_to_end"]
        ]
        assert list(entry["per_layer"]) == [
            m["name"] for m in spec["per_layer"]
        ]
        assert all(NAME.match(metric) for metric in entry["per_layer"])
        median = entry["step_ms"]["step_ms_p50"]
        assert median["samples"] == entry["size"]["steps"]
        assert entry["size"]["ops"] <= 300
        assert entry["gate"] == [] and entry["missing"] == []
        assert entry["ops_failed_share"]["value"] == 0
        assert entry["per_layer"]["harness.self_share"]["value"] < 0.05
    # Generous: the smoke run takes about 20 s on a quiet machine.
    assert elapsed < 90


def test_workloads_separate_the_layers(smoke_ledger):
    ledger, _ = smoke_ledger
    layer = {
        name: {m: v["value"] for m, v in entry["per_layer"].items()}
        for name, entry in ledger["workloads"].items()
    }
    for wire in ("typing_1w", "burst_1w64", "fanout_1w3r"):
        assert layer[wire]["jupiter.nary.ot_per_op"] == 0
        assert layer[wire]["net.codec.frames_per_op"] > 0
    assert layer["sim_4w"]["jupiter.nary.ot_per_op"] > 5
    assert layer["sim_4w"]["net.codec.frames_per_op"] == 0
    assert layer["typing_1w"]["jupiter.persistence.wal_bytes_per_op"] > 0
    assert layer["burst_1w64"]["jupiter.persistence.wal_bytes_per_op"] == 0


@pytest.mark.parametrize("name", ["typing_1w", "sim_4w"])
def test_same_seed_repeats_exactly(smoke_ledger, name):
    ledger, _ = smoke_ledger
    first = ledger["workloads"][name]
    again = harness.spawn(name, ledger["provenance"]["seed"], None, trace=True)
    assert again["signature"] == first["signature"]
    assert again["exact"] == first["exact"]
    for metric in EXACT_LAYER_COUNTS[name]:
        assert again["layers"][metric] == first["per_layer"][metric]["value"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    assert stats.tail(samples, 0.90) == 89.0
    with pytest.raises(stats.TooFewSamples):
        stats.tail(samples, 0.95)  # 5 beyond
    summary = stats.summarize(samples, {"p90": 0.90, "p99": 0.99})
    assert summary["p90"]["beyond"] == 10
    assert summary["p99"] is None
    assert summary["p50"]["samples"] == 100


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [104.0, 105.0, 103.0], 0.1, "lower") == "ok"
    assert (
        compare.verdict(steady, [120.0, 121.0, 119.0], 0.1, "lower")
        == "regressed"
    )
    assert compare.verdict(steady, [80.0, 81.0, 79.0], 0.1, "higher") == (
        "regressed"
    )
    noisy = [100.0, 140.0, 70.0]
    assert compare.verdict(steady, noisy, 0.1, "lower") == "unresolved"
    # Wide spread, but every run of the second beats every run of the first.
    assert compare.verdict(noisy, [50.0, 65.0, 40.0], 0.1, "lower") == "ok"


def test_tracer_self_time_wait_and_missing_hooks(monkeypatch):
    module = types.ModuleType("repro._opbudget_selftest")
    exec(TRACED_MODULE, module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = Tracer()
    for name in ("leaf", "outer", "suspended"):
        assert tracer.wrap(f"{module.__name__}:{name}", "test")
    assert tracer.wrap(f"{module.__name__}:renamed_away", "test") is None
    assert tracer.missing == [f"{module.__name__}:renamed_away"]

    module.outer()  # not active yet: passes straight through
    assert tracer.stats["_opbudget_selftest.outer"].calls == 0
    tracer.active = True
    module.outer()
    asyncio.run(module.suspended())

    outer_stats = tracer.stats["_opbudget_selftest.outer"]
    leaf_stats = tracer.stats["_opbudget_selftest.leaf"]
    coro_stats = tracer.stats["_opbudget_selftest.suspended"]
    assert leaf_stats.calls == 2
    # outer's self time excludes the leaf it called...
    assert outer_stats.total_ns >= 3_000_000
    assert 1_000_000 <= outer_stats.self_ns < outer_stats.total_ns - 1_900_000
    # ...and a coroutine's suspension is wait, not busy time.
    assert coro_stats.wait_ns >= 9_000_000
    assert coro_stats.total_ns < 9_000_000
    assert coro_stats.self_ns < coro_stats.total_ns - 1_900_000

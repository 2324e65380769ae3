"""The three CI chaos sweeps, pinned: simulated traffic that must not move.

``chaos_golden.json`` holds, for every plan of ``repro chaos --plans 5
--seed 7 --operations 12`` — plain, ``--server-crash`` and
``--kill-primary`` (three replicas) — a sha256 of the recorded schedule,
the final documents, the failover latencies and every
:class:`~repro.sim.fuzz.ChaosCase` counter.  A change to how the
simulator drives a server must reproduce it exactly.  Regenerate it
(``PYTHONPATH=src python tests/sim/test_chaos_golden.py``) only when the
simulated traffic changes on purpose, and say which field moved and why.
"""

import dataclasses
import hashlib
import importlib
import json
import os

import pytest

from repro.sim.workload import WorkloadConfig

# The module itself: ``repro.sim``'s ``fuzz`` attribute is a function.
fuzz = importlib.import_module("repro.sim.fuzz")

FIXTURE = os.path.join(os.path.dirname(__file__), "chaos_golden.json")
SWEEPS = {
    "plain": {},
    "server_crash": {"server_crash": True},
    "replicas": {"replicas": 3},
}


def schedule_digest(schedule) -> str:
    text = "\n".join(repr(step) for step in schedule)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_sweep(name):
    """One CI sweep, each plan's result captured as ``chaos_sweep`` ran it."""
    results = []

    class Recording(fuzz.SimulationRunner):
        def run(self):
            result = super().run()
            results.append(result)
            return result

    original, fuzz.SimulationRunner = fuzz.SimulationRunner, Recording
    try:
        report = fuzz.chaos_sweep(
            workload=WorkloadConfig(clients=3, operations=12, seed=7),
            plans=5,
            seed=7,
            **SWEEPS[name],
        )
    finally:
        fuzz.SimulationRunner = original
    assert report.ok, report.summary()
    return [
        {
            "schedule_sha256": schedule_digest(result.schedule),
            "documents": result.documents(),
            **dataclasses.asdict(case),
        }
        for case, result in zip(report.cases, results)
    ]


def _plain(obj):
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_the_sweep_reproduces_its_golden(golden, name):
    assert _plain(run_sweep(name)) == golden[name]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(
            {name: run_sweep(name) for name in sorted(SWEEPS)},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")

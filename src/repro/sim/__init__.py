"""Deterministic discrete-event simulation of Jupiter deployments.

The original Jupiter system ran clients against a central server over TCP;
we substitute a simulated network that preserves exactly the properties
the paper's proofs rely on — FIFO, exactly-once, eventually-delivered
channels (Section 2.1.3) — while making every run deterministic and
replayable:

* :mod:`repro.sim.network` — latency models and FIFO channel timing;
* :mod:`repro.sim.workload` — random editing workload generators;
* :mod:`repro.sim.runner` — the event loop driving a protocol cluster in
  simulated time, recording both the concrete execution and the abstract
  :class:`~repro.model.schedule.Schedule` for replay against other
  protocols;
* :mod:`repro.sim.trace` — turning recorded executions into abstract
  executions and running all three specification checkers;
* :mod:`repro.sim.faults` — seeded drop/duplicate/delay/crash injection,
  against which the reliable-session layer
  (:mod:`repro.jupiter.session`) re-earns the FIFO exactly-once model.
"""

from repro._lazy import lazy_exports

#: submodule -> the public names it defines, imported on first use
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "faults": (
            "ChannelFaults CrashSpec FaultPlan FaultStats NetChaosPlan "
            "ServerCrashSpec"
        ),
        "fuzz": "ChaosReport FuzzReport chaos_sweep fuzz",
        "network": (
            "FifoChannelTimer FixedLatency LatencyModel OfflinePeriods "
            "UniformLatency"
        ),
        "p2p": "P2PSimulationResult P2PSimulationRunner",
        "runner": "SimulationResult SimulationRunner replay",
        "trace": "SpecReport check_all_specs",
        "workload": "WorkloadConfig WorkloadGenerator",
    },
)

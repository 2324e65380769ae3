"""Session-layer counters observed through the metrics registry.

One seeded fault-injected simulation drives the whole instrumented
stack — retransmissions, duplicate suppression, gap parking, WAL
appends, OT integration — and every new metric must agree exactly with
the counters the simulator already keeps in ``FaultStats``.  The fault
plan is deterministic, so these equalities hold on every run of the same
seed, not just statistically.
"""

import pytest

from repro import obs
from repro.sim import (
    ChannelFaults,
    FaultPlan,
    SimulationRunner,
    UniformLatency,
    WorkloadConfig,
)


@pytest.fixture(scope="module")
def faulty_run():
    # Enable *before* constructing the runner: instrumented objects bind
    # the handle at construction (the repro.obs contract).
    obs.enable(reset=True)
    runner = SimulationRunner(
        "css",
        WorkloadConfig(clients=3, operations=40, seed=23),
        UniformLatency(0.01, 0.3, seed=23),
        faults=FaultPlan(
            seed=23,
            default=ChannelFaults(drop=0.25, duplicate=0.2, delay=0.3),
            wal=True,
        ),
    )
    result = runner.run()
    handle = obs.get_obs()
    yield result, handle
    obs.disable()


class TestSessionCounters:
    def test_run_exercised_the_fault_machinery(self, faulty_run):
        result, _ = faulty_run
        assert result.converged
        stats = result.fault_stats
        assert stats.retransmissions > 0
        assert stats.duplicates_suppressed > 0
        assert stats.out_of_order_buffered > 0

    def test_retransmits_match_fault_stats(self, faulty_run):
        result, handle = faulty_run
        assert (
            handle.session_retransmits.value
            == result.fault_stats.retransmissions
        )

    def test_duplicate_suppression_matches_fault_stats(self, faulty_run):
        result, handle = faulty_run
        assert (
            handle.session_duplicates.value
            == result.fault_stats.duplicates_suppressed
        )

    def test_gap_parks_match_fault_stats(self, faulty_run):
        result, handle = faulty_run
        assert (
            handle.session_gap_parks.value
            == result.fault_stats.out_of_order_buffered
        )

    def test_acks_were_processed(self, faulty_run):
        _, handle = faulty_run
        assert handle.session_acks.value > 0


class TestWalAndProtocolCounters:
    def test_wal_counters_match_fault_stats(self, faulty_run):
        result, handle = faulty_run
        assert handle.wal_appends.value == result.fault_stats.wal_appends
        assert handle.wal_appends.value == 40

    def test_serialisation_and_ot_were_observed(self, faulty_run):
        _, handle = faulty_run
        assert handle.ops_serialised.value == 40
        assert handle.serialise_duration.count == 40
        assert handle.ot_transforms.value > 0
        assert handle.space_nodes.value > 0

    def test_exposition_carries_the_session_series(self, faulty_run):
        result, handle = faulty_run
        text = handle.render()
        retransmissions = result.fault_stats.retransmissions
        assert (
            f"repro_session_retransmits_total {retransmissions}" in text
        )
        assert "repro_wal_appends_total 40" in text

"""Tests for the fault-injected simulation path (sessions + recovery)."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    ChannelFaults,
    CrashSpec,
    FaultPlan,
    ServerCrashSpec,
    SimulationResult,
    SimulationRunner,
    UniformLatency,
    WorkloadConfig,
    chaos_sweep,
    replay,
)

LOSSY = ChannelFaults(drop=0.25, duplicate=0.15, delay=0.25)


def run_css(workload, plan, latency_seed=4):
    return SimulationRunner(
        "css",
        workload,
        UniformLatency(0.01, 0.3, seed=latency_seed),
        faults=plan,
    ).run()


class TestZeroCostWhenDisabled:
    def test_no_plan_means_no_fault_stats(self):
        result = SimulationRunner(
            "css", WorkloadConfig(operations=8), UniformLatency(0.01, 0.1)
        ).run()
        assert result.fault_stats is None

    def test_reliable_path_is_deterministic(self):
        """With ``faults=None`` the runner takes the original code path:
        two identically-seeded runs produce identical schedules."""
        def fresh():
            return SimulationRunner(
                "css",
                WorkloadConfig(clients=3, operations=15, seed=3),
                UniformLatency(0.01, 0.2, seed=2),
            ).run()

        first, second = fresh(), fresh()
        assert first.schedule._steps == second.schedule._steps
        assert first.cluster.behaviors == second.cluster.behaviors
        assert first.documents() == second.documents()

    def test_quiet_plan_converges_without_faults(self):
        """An all-quiet plan rides the session layer but never drops,
        duplicates or retransmits spuriously on an idle-enough network."""
        workload = WorkloadConfig(clients=3, operations=15, seed=3)
        faulty = SimulationRunner(
            "css",
            workload,
            UniformLatency(0.01, 0.1, seed=2),
            faults=FaultPlan(seed=0),
        ).run()
        assert faulty.converged
        stats = faulty.fault_stats
        assert stats.frames_dropped == 0
        assert stats.frames_duplicated == 0
        assert stats.duplicates_suppressed == 0
        twin = replay("css", faulty.schedule, workload.client_names())
        assert twin.behaviors == faulty.cluster.behaviors


class TestLossyNetwork:
    def test_converges_and_replays_without_crashes(self):
        workload = WorkloadConfig(clients=3, operations=20, seed=5)
        plan = FaultPlan(seed=8, default=LOSSY)
        result = run_css(workload, plan)
        assert result.converged
        stats = result.fault_stats
        assert stats.frames_dropped > 0
        assert stats.retransmissions > 0
        assert stats.duplicates_suppressed > 0
        # Every protocol message reached every client exactly once.
        assert result.messages_delivered == workload.operations * workload.clients
        twin = replay("css", result.schedule, workload.client_names())
        assert twin.behaviors == result.cluster.behaviors
        assert twin.documents() == result.documents()


class TestCrashRecovery:
    def test_crash_restore_resync(self):
        workload = WorkloadConfig(clients=3, operations=18, seed=5)
        plan = FaultPlan(
            seed=2,
            default=LOSSY,
            crashes=[CrashSpec("c2", at=1.0, restore_at=2.5)],
            snapshot_every=2,
        )
        result = run_css(workload, plan)
        assert result.converged
        stats = result.fault_stats
        assert stats.crashes == 1
        assert stats.restores == 1
        assert stats.checkpoints > 0
        twin = replay("css", result.schedule, workload.client_names())
        assert twin.behaviors == result.cluster.behaviors

    def test_checkpoint_cut_mid_release_burst(self):
        """Regression: a checkpoint taken while the session receiver has
        released a multi-frame run the event loop has only partly popped
        must record the *popped* count as its resync cursor.  With the
        receiver's burst-advanced total, recovery skipped the unpopped
        operations and the restored client later failed context lookup."""
        workload = WorkloadConfig(clients=3, operations=24, seed=7)
        plan = FaultPlan(
            seed=9,
            default=LOSSY,
            crashes=[CrashSpec("c1", at=2.0, restore_at=4.0)],
            snapshot_every=4,
        )
        result = run_css(workload, plan)
        assert result.converged
        twin = replay("css", result.schedule, workload.client_names())
        assert twin.behaviors == result.cluster.behaviors
        assert twin.documents() == result.documents()

    def test_generations_during_crash_are_deferred(self):
        workload = WorkloadConfig(clients=2, operations=16, seed=1)
        plan = FaultPlan(
            seed=3,
            crashes=[CrashSpec("c1", at=0.5, restore_at=6.0)],
        )
        result = run_css(workload, plan)
        assert result.converged
        assert result.fault_stats.deferred_generations > 0
        # Deferred keystrokes still happen: nothing is lost, only late.
        assert result.messages_delivered == workload.operations * workload.clients

    def test_crashes_require_css(self):
        plan = FaultPlan(crashes=[CrashSpec("c1", at=1.0, restore_at=2.0)])
        with pytest.raises(SimulationError):
            SimulationRunner(
                "cscw", WorkloadConfig(operations=6), faults=plan
            ).run()

    def test_crash_of_unknown_client_rejected(self):
        plan = FaultPlan(crashes=[CrashSpec("c9", at=1.0, restore_at=2.0)])
        with pytest.raises(SimulationError):
            SimulationRunner(
                "css", WorkloadConfig(clients=2, operations=6), faults=plan
            ).run()


def assert_dense_serials(server, expected_count):
    serials = [serial for _opid, serial in server.oracle.serial_items()]
    assert serials == list(range(1, expected_count + 1))


class TestServerCrashRecovery:
    def test_server_crash_recovers_from_the_wal(self):
        workload = WorkloadConfig(clients=3, operations=18, seed=5)
        plan = FaultPlan(
            seed=2,
            default=LOSSY,
            server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.5)],
            snapshot_every=4,
        )
        result = run_css(workload, plan)
        assert result.converged
        stats = result.fault_stats
        assert stats.server_crashes == 1
        assert stats.server_restores == 1
        # Every serialised operation was logged before broadcast.
        assert stats.wal_appends == workload.operations
        # Exactly-once delivery survived the outage.
        assert result.messages_delivered == (
            workload.operations * workload.clients
        )
        assert_dense_serials(result.cluster.server, workload.operations)
        twin = replay("css", result.schedule, workload.client_names())
        assert twin.behaviors == result.cluster.behaviors
        assert twin.documents() == result.documents()

    def test_in_flight_server_traffic_dies_with_the_epoch(self):
        """Frames/acks the old incarnation had on the wire are lost; the
        session layer re-earns delivery through the recovered server."""
        workload = WorkloadConfig(clients=3, operations=20, seed=9)
        plan = FaultPlan(
            seed=6,
            default=LOSSY,
            server_crashes=[ServerCrashSpec(at=1.2, restore_at=2.0)],
        )
        result = run_css(workload, plan)
        assert result.converged
        assert result.fault_stats.frames_lost_in_flight > 0

    def test_mixed_server_and_client_crashes(self):
        workload = WorkloadConfig(clients=3, operations=24, seed=3)
        plan = FaultPlan(
            seed=7,
            default=LOSSY,
            crashes=[CrashSpec("c2", at=0.8, restore_at=3.0)],
            server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.0)],
            snapshot_every=3,
        )
        result = run_css(workload, plan)
        assert result.converged
        stats = result.fault_stats
        assert stats.crashes == 1 and stats.restores == 1
        assert stats.server_crashes == 1 and stats.server_restores == 1
        assert_dense_serials(result.cluster.server, workload.operations)
        twin = replay("css", result.schedule, workload.client_names())
        assert twin.behaviors == result.cluster.behaviors
        assert twin.documents() == result.documents()

    def test_wal_consumes_no_randomness(self):
        """wal=True on a crash-free plan must not perturb the run: the
        durability write path is pure bookkeeping, so the schedule (and
        every transport counter) is identical with it on or off."""
        workload = WorkloadConfig(clients=3, operations=15, seed=4)

        def run(wal):
            plan = FaultPlan(seed=5, default=LOSSY, wal=wal)
            return run_css(workload, plan)

        off, on = run(False), run(True)
        assert on.schedule._steps == off.schedule._steps
        assert on.duration == off.duration
        assert on.fault_stats.frames_sent == off.fault_stats.frames_sent
        assert off.fault_stats.wal_appends == 0
        assert on.fault_stats.wal_appends == workload.operations

    def test_server_crashes_require_css(self):
        plan = FaultPlan(
            server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.0)]
        )
        with pytest.raises(SimulationError):
            SimulationRunner(
                "cscw", WorkloadConfig(operations=6), faults=plan
            ).run()

    def test_back_to_back_server_outages(self):
        workload = WorkloadConfig(clients=2, operations=20, seed=8)
        plan = FaultPlan(
            seed=1,
            default=ChannelFaults(drop=0.1, duplicate=0.1, delay=0.2),
            server_crashes=[
                ServerCrashSpec(at=1.0, restore_at=1.8),
                ServerCrashSpec(at=3.0, restore_at=3.7),
            ],
            snapshot_every=2,
        )
        result = run_css(workload, plan)
        assert result.converged
        assert result.fault_stats.server_crashes == 2
        assert result.fault_stats.server_restores == 2
        assert_dense_serials(result.cluster.server, workload.operations)
        twin = replay("css", result.schedule, workload.client_names())
        assert twin.behaviors == result.cluster.behaviors


class TestOneServer:
    """A faulty run with a shard core has one server, the shard's: every
    serialised op is integrated by it once, and a restart rebinds the
    cluster to the rebuilt one."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(
                seed=2,
                default=LOSSY,
                server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.5)],
                snapshot_every=4,
                wal=True,
            ),
            FaultPlan(
                seed=3,
                default=LOSSY,
                server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.5)],
                replicas=3,
            ),
        ],
        ids=["wal-server-crash", "replicas-primary-kill"],
    )
    def test_each_op_is_integrated_once(self, monkeypatch, plan):
        from repro.jupiter.css import CssServer
        from repro.jupiter.persistence import ServerWriteAheadLog
        from repro.jupiter.shard import ShardCore

        shards, counts, recovering = [], {"serialise": 0, "receive": 0}, []
        real_init = ShardCore.__init__
        real_serialise = ShardCore.serialise
        real_receive = CssServer.receive
        real_recover = ServerWriteAheadLog.recover

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            shards.append(self)

        def serialise(self, *args):
            counts["serialise"] += 1
            return real_serialise(self, *args)

        def receive(self, *args):
            if not recovering:
                counts["receive"] += 1
            return real_receive(self, *args)

        def recover(self):
            recovering.append(self)
            try:
                return real_recover(self)
            finally:
                recovering.pop()

        monkeypatch.setattr(ShardCore, "__init__", init)
        monkeypatch.setattr(ShardCore, "serialise", serialise)
        monkeypatch.setattr(CssServer, "receive", receive)
        monkeypatch.setattr(ServerWriteAheadLog, "recover", recover)
        workload = WorkloadConfig(clients=3, operations=18, seed=5)
        result = run_css(workload, plan)
        assert result.converged
        assert len(shards) >= 2  # startup, then a restart
        assert result.cluster.server is shards[-1].server
        assert counts["serialise"] >= workload.operations
        assert counts["receive"] == counts["serialise"]
        twin = replay("css", result.schedule, workload.client_names())
        assert twin.behaviors == result.cluster.behaviors
        assert (
            result.cluster.server.space.signature()
            == twin.server.space.signature()
        )


class TestTheBodyPath:
    """A client frame carries its payload: the server's session parks or
    releases it, as a deployed one does, and the client keeps it until an
    ack covers its seq.  At quiescence nothing is left in either place."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(
                seed=3,
                default=LOSSY,
                server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.5)],
                crashes=[CrashSpec("c1", at=0.4, restore_at=0.9)],
                replicas=3,
            ),
            FaultPlan(
                seed=2,
                default=LOSSY,
                server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.5)],
                crashes=[CrashSpec("c2", at=0.5, restore_at=0.95)],
                snapshot_every=4,
                wal=True,
            ),
        ],
        ids=["replicas-primary-kill", "wal-server-crash"],
    )
    def test_outboxes_and_parked_payloads_are_empty_at_quiescence(self, plan):
        from repro.sim.runner import _FaultyRun

        workload = WorkloadConfig(clients=3, operations=18, seed=5)
        run = _FaultyRun(
            SimulationRunner(
                "css", workload, UniformLatency(0.01, 0.3, seed=4), faults=plan
            )
        )
        result = run.run()
        assert result.converged
        stats = result.fault_stats
        assert stats.out_of_order_buffered > 0 and stats.restores == 1
        assert run.outbox == {name: {} for name in workload.client_names()}
        sessions = run.server_core.shard.sessions.values()
        assert [session.parked for session in sessions] == [{}, {}, {}]


class TestChaosSweep:
    def test_sweep_passes_with_replay_check(self):
        report = chaos_sweep(
            "css",
            plans=4,
            seed=50,
            workload=WorkloadConfig(clients=3, operations=12),
        )
        assert report.ok, report.summary()
        assert len(report.cases) == 4
        assert all(case.converged and case.replay_ok for case in report.cases)
        assert "chaos[css]" in report.summary()
        assert report.table().count("\n") == 4  # header + one row per case

    def test_sweep_on_protocol_without_snapshots(self):
        report = chaos_sweep(
            "cscw",
            plans=2,
            seed=20,
            workload=WorkloadConfig(clients=3, operations=10),
        )
        assert report.ok, report.summary()
        assert all(case.crashes == 0 for case in report.cases)

    def test_sweep_with_server_crashes(self):
        report = chaos_sweep(
            "css",
            plans=3,
            seed=40,
            workload=WorkloadConfig(clients=3, operations=12),
            server_crash=True,
        )
        assert report.ok, report.summary()
        assert all(case.server_crashes == 1 for case in report.cases)
        assert all(case.wal_appends == 12 for case in report.cases)
        assert all(case.converged and case.replay_ok for case in report.cases)

    def test_server_crash_sweep_requires_css(self):
        with pytest.raises(SimulationError):
            chaos_sweep("cscw", plans=1, server_crash=True)


class TestSimulationResultDefaults:
    def test_timing_dicts_are_independent_instances(self):
        """Regression for the shared-``None`` sentinel: two results must
        not alias one mutable default dict."""
        def fresh():
            return SimulationRunner(
                "css", WorkloadConfig(operations=4), UniformLatency(0.01, 0.05)
            ).run()

        first, second = fresh(), fresh()
        assert first.generated_at == second.generated_at
        assert first.generated_at is not second.generated_at
        bare = SimulationResult(
            cluster=first.cluster,
            execution=first.execution,
            schedule=first.schedule,
            duration=0.0,
            messages_delivered=0,
        )
        assert bare.generated_at == {}
        assert bare.propagation_latencies() == {}
        bare.generated_at["x"] = 1.0
        assert SimulationResult(
            cluster=first.cluster,
            execution=first.execution,
            schedule=first.schedule,
            duration=0.0,
            messages_delivered=0,
        ).generated_at == {}

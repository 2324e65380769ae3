"""Tests for the deterministic fault-injection plans."""

import pytest

from repro.errors import SimulationError
from repro.sim.faults import (
    MAX_DROP,
    ChannelFaults,
    CrashSpec,
    FaultPlan,
    FaultStats,
    ServerCrashSpec,
)


class TestChannelFaults:
    def test_probabilities_validated(self):
        with pytest.raises(SimulationError):
            ChannelFaults(drop=-0.1)
        with pytest.raises(SimulationError):
            ChannelFaults(duplicate=1.5)
        with pytest.raises(SimulationError):
            ChannelFaults(drop=MAX_DROP)  # would never become reliable
        with pytest.raises(SimulationError):
            ChannelFaults(delay_range=(0.5, 0.1))

    def test_drop_ceiling_is_exclusive(self):
        """MAX_DROP itself and anything above it is refused; just below
        passes — the boundary a plan generator is most likely to hit."""
        with pytest.raises(SimulationError):
            ChannelFaults(drop=MAX_DROP + 0.01)
        assert ChannelFaults(drop=MAX_DROP - 0.01).drop == MAX_DROP - 0.01

    def test_quiet_channel(self):
        assert ChannelFaults().quiet
        assert not ChannelFaults(drop=0.1).quiet


class TestCrashSpec:
    def test_restore_must_follow_crash(self):
        with pytest.raises(SimulationError):
            CrashSpec("c1", at=2.0, restore_at=2.0)
        with pytest.raises(SimulationError):
            CrashSpec("c1", at=-1.0, restore_at=2.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan(
                crashes=[
                    CrashSpec("c1", at=1.0, restore_at=3.0),
                    CrashSpec("c1", at=2.0, restore_at=4.0),
                ]
            )
        # Distinct clients may overlap freely.
        FaultPlan(
            crashes=[
                CrashSpec("c1", at=1.0, restore_at=3.0),
                CrashSpec("c2", at=2.0, restore_at=4.0),
            ]
        )


class TestServerCrashSpec:
    def test_restore_must_follow_crash(self):
        with pytest.raises(SimulationError):
            ServerCrashSpec(at=2.0, restore_at=2.0)
        with pytest.raises(SimulationError):
            ServerCrashSpec(at=-1.0, restore_at=2.0)

    def test_overlapping_server_windows_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan(
                server_crashes=[
                    ServerCrashSpec(at=1.0, restore_at=3.0),
                    ServerCrashSpec(at=2.0, restore_at=4.0),
                ]
            )
        # Sequential outages are fine.
        FaultPlan(
            server_crashes=[
                ServerCrashSpec(at=1.0, restore_at=2.0),
                ServerCrashSpec(at=3.0, restore_at=4.0),
            ]
        )

    def test_client_restore_during_server_outage_rejected(self):
        """A restarting client resyncs from the server, so its restore
        cannot land inside (or on the closed boundary of) an outage."""
        window = ServerCrashSpec(at=1.0, restore_at=3.0)
        for restore_at in (1.0, 2.0, 3.0):  # boundaries included
            with pytest.raises(SimulationError):
                FaultPlan(
                    crashes=[
                        CrashSpec("c1", at=0.5, restore_at=restore_at)
                    ],
                    server_crashes=[window],
                )
        # Restoring after the server is back is fine, even if the crash
        # itself happened mid-outage.
        FaultPlan(
            crashes=[CrashSpec("c1", at=2.0, restore_at=3.5)],
            server_crashes=[window],
        )

    def test_server_crashes_require_the_wal(self):
        with pytest.raises(SimulationError):
            FaultPlan(
                server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.0)],
                wal=False,
            )

    def test_wal_enabled_defaults_to_server_crash_presence(self):
        assert not FaultPlan().wal_enabled
        assert FaultPlan(
            server_crashes=[ServerCrashSpec(at=1.0, restore_at=2.0)]
        ).wal_enabled
        # Explicit True measures durability overhead without a crash.
        assert FaultPlan(wal=True).wal_enabled


class TestFaultPlan:
    def test_decisions_are_deterministic_per_seed(self):
        faults = ChannelFaults(drop=0.3, duplicate=0.2, delay=0.3)
        first = FaultPlan(seed=3, default=faults)
        second = first.fresh()
        decisions = [first.decide(("c1", "s"), t * 0.1) for t in range(50)]
        assert decisions == [
            second.decide(("c1", "s"), t * 0.1) for t in range(50)
        ]

    def test_quiet_channel_skips_the_rng(self):
        plan = FaultPlan(
            seed=1,
            channels={("c1", "s"): ChannelFaults(drop=0.5)},
        )
        # Decisions on a quiet channel must not consume randomness, so
        # adding quiet-channel traffic never perturbs the lossy channel.
        before = [plan.decide(("c1", "s"), 0.0) for _ in range(5)]
        replayed = plan.fresh()
        for _ in range(100):
            assert replayed.decide(("s", "c2"), 0.0).extra_delays == (0.0,)
        assert before == [replayed.decide(("c1", "s"), 0.0) for _ in range(5)]

    def test_per_channel_overrides(self):
        plan = FaultPlan(
            default=ChannelFaults(drop=0.1),
            channels={("c1", "s"): ChannelFaults(drop=0.9)},
        )
        assert plan.faults_for(("c1", "s")).drop == 0.9
        assert plan.faults_for(("s", "c1")).drop == 0.1

    def test_sample_respects_bounds_and_crashes(self):
        for seed in range(30):
            plan = FaultPlan.sample(
                seed, ["c1", "c2", "c3"], duration_hint=5.0, max_drop=0.3
            )
            assert 0.0 <= plan.default.drop <= 0.3
            assert 0.0 <= plan.default.duplicate <= 0.2
            assert 1 <= len(plan.crashes) <= 2
            for crash in plan.crashes:
                assert crash.restore_at > crash.at
            assert plan.snapshot_every >= 1

    def test_sample_is_deterministic(self):
        one = FaultPlan.sample(9, ["c1", "c2"])
        two = FaultPlan.sample(9, ["c1", "c2"])
        assert one.default == two.default
        assert one.crashes == two.crashes
        assert one.snapshot_every == two.snapshot_every

    def test_without_crashes(self):
        plan = FaultPlan.sample(4, ["c1", "c2"])
        assert plan.crashes
        assert not plan.without_crashes().crashes
        assert plan.without_crashes().default == plan.default

    def test_shrunk_ends_clean(self):
        plan = FaultPlan.sample(11, ["c1", "c2", "c3"])
        variants = list(plan.shrunk())
        assert variants[-1].default.quiet
        assert not variants[-1].crashes
        # Earlier variants strip one fault dimension at a time.
        assert variants[0].default.duplicate == 0.0
        assert variants[1].default.drop == 0.0
        assert not variants[2].crashes

    def test_snapshot_every_validated(self):
        with pytest.raises(SimulationError):
            FaultPlan(snapshot_every=0)

    def test_sample_with_server_crash_is_valid_and_deterministic(self):
        for seed in range(30):
            plan = FaultPlan.sample(
                seed, ["c1", "c2", "c3"], duration_hint=5.0, server_crash=True
            )
            assert len(plan.server_crashes) == 1
            assert plan.wal_enabled
            window = plan.server_crashes[0]
            # Construction already validates, but make the guarantee
            # explicit: no client restores during the outage.
            for crash in plan.crashes:
                assert not window.at <= crash.restore_at <= window.restore_at
        one = FaultPlan.sample(9, ["c1", "c2"], server_crash=True)
        two = FaultPlan.sample(9, ["c1", "c2"], server_crash=True)
        assert one.server_crashes == two.server_crashes
        assert one.crashes == two.crashes

    def test_without_crashes_clears_server_crashes_too(self):
        plan = FaultPlan.sample(4, ["c1", "c2"], server_crash=True)
        cleared = plan.without_crashes()
        assert not cleared.crashes
        assert not cleared.server_crashes

    def test_shrunk_strips_the_server_crash_separately(self):
        plan = FaultPlan.sample(11, ["c1", "c2", "c3"], server_crash=True)
        variants = list(plan.shrunk())
        # One variant keeps the client crashes but drops the server crash
        # — the triage step that distinguishes WAL-recovery bugs from
        # client-recovery bugs.
        assert any(
            v.crashes and not v.server_crashes for v in variants
        )
        assert variants[-1].default.quiet
        assert not variants[-1].server_crashes


class TestFaultStats:
    def test_as_dict_and_summary(self):
        stats = FaultStats(frames_sent=10, frames_dropped=3, crashes=1)
        assert stats.as_dict()["frames_dropped"] == 3
        assert "dropped=3" in stats.summary()
        assert "crashes=1" in stats.summary()

    def test_summary_reports_durability_counters(self):
        stats = FaultStats(
            server_crashes=1, server_resynced_ops=4, wal_appends=12,
        )
        summary = stats.summary()
        assert "server-crashes=1" in summary
        assert "server-resynced=4" in summary
        assert "wal-appends=12" in summary

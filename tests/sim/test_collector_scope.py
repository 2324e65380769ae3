"""The simulator's collector policy and the premise it rests on.

``SimulationRunner.run`` pauses the cyclic collector on the reliable path
and raises its gen-0 threshold on the faulty one.  The pause is sound
only because a reliable run builds no reference cycle: refcounting alone
frees everything a dropped run held.  These tests pin that premise for
every protocol, and that the runner hands back the collector exactly as
it found it.
"""

import gc

import pytest

import repro.sim.runner as runner_module
from repro.cli import PROTOCOLS
from repro.errors import SimulationError
from repro.sim import (
    CrashSpec,
    FaultPlan,
    SimulationRunner,
    UniformLatency,
    WorkloadConfig,
    chaos_sweep,
)

#: A threshold no CPython default has, so a restored one is the test's.
ODD_THRESHOLD = (1234, 11, 12)


def runner(protocol="css", operations=12, faults=None):
    return SimulationRunner(
        protocol,
        WorkloadConfig(clients=3, operations=operations, seed=3),
        UniformLatency(0.01, 0.4, seed=3),
        faults=faults,
    )


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Put the collector in an unusual state for the test; restore the
    one found afterwards."""
    found = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(*ODD_THRESHOLD)
    (gc.enable if request.param else gc.disable)()
    yield request.param, ODD_THRESHOLD
    gc.set_threshold(*found[1])
    (gc.enable if found[0] else gc.disable)()


def state():
    return gc.isenabled(), gc.get_threshold()


class TestTheRunRestoresTheCollector:
    def test_on_a_normal_return(self, collector):
        assert runner().run().converged
        assert state() == collector

    def test_on_a_raised_simulation_error(self, collector, monkeypatch):
        def broken(*args, **kwargs):
            raise SimulationError("no cluster")

        monkeypatch.setattr(runner_module, "make_cluster", broken)
        with pytest.raises(SimulationError):
            runner().run()
        assert state() == collector

    def test_on_a_refused_fault_plan(self, collector):
        plan = FaultPlan(crashes=[CrashSpec("c1", 0.1, 0.5)])
        with pytest.raises(SimulationError):
            runner("cscw", faults=plan).run()
        assert state() == collector

    @pytest.mark.parametrize(
        "options", [{}, {"server_crash": True}, {"replicas": 3}],
        ids=["client-crash", "server-crash", "kill-primary"],
    )
    def test_across_a_faulty_run_and_its_replay(self, collector, options):
        report = chaos_sweep(
            plans=1, seed=7, workload=WorkloadConfig(clients=3, operations=12),
            **options,
        )
        assert report.ok and report.cases[0].replay_ok
        assert state() == collector

    def test_survivors_leave_the_young_generation(self):
        result = runner(operations=60).run()
        assert gc.get_freeze_count() == 0
        assert result.converged
        assert gc.get_count()[0] < 100

    def test_frozen_objects_stay_frozen(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            runner().run()
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_nested_scopes_restore_the_outer_state(self, collector):
        with runner_module._collector_scope(pause=True):
            with runner_module._collector_scope(pause=False):
                assert not gc.isenabled()
                assert gc.get_threshold()[0] >= runner_module._FAULTY_GEN0
            assert not gc.isenabled()
            assert gc.get_threshold() == ODD_THRESHOLD
        assert state() == collector


@pytest.mark.parametrize("protocol", sorted({*PROTOCOLS, "css-ref"}))
def test_a_dropped_reliable_run_leaves_no_cycle(protocol):
    """The premise of the pause: nothing a reliable run allocates needs
    the cyclic collector to be freed, for any protocol."""
    found = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = runner(protocol, operations=60).run()
        assert len(result.schedule) > 60
        del result
        assert gc.collect() == 0
    finally:
        if found:
            gc.enable()

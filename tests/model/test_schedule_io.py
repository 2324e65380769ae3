"""Tests for schedule JSON persistence."""

import json

import pytest

from repro.errors import ScheduleError
from repro.model import ScheduleBuilder
from repro.model.schedule_io import (
    load_metadata,
    load_schedule,
    save_schedule,
    schedule_from_obj,
    schedule_to_obj,
    schedules_equal,
)


def sample_schedule():
    return (
        ScheduleBuilder()
        .ins("c1", 0, "x")
        .delete("c2", 0)
        .server_recv("c1")
        .client_recv("c2")
        .read("c1")
        .drain()
        .build()
    )


class TestRoundTrip:
    def test_obj_round_trip(self):
        schedule = sample_schedule()
        restored = schedule_from_obj(
            json.loads(json.dumps(schedule_to_obj(schedule)))
        )
        assert schedules_equal(schedule, restored)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "schedule.json"
        schedule = sample_schedule()
        save_schedule(schedule, str(path), metadata={"note": "hi"})
        restored = load_schedule(str(path))
        assert schedules_equal(schedule, restored)
        assert load_metadata(str(path)) == {"note": "hi"}

    def test_replaying_loaded_schedule_matches(self, tmp_path):
        from repro.sim import SimulationRunner, WorkloadConfig
        from repro.sim.runner import replay

        config = WorkloadConfig(clients=3, operations=15, seed=4)
        result = SimulationRunner("css", config).run()
        path = tmp_path / "run.json"
        save_schedule(result.schedule, str(path))
        loaded = load_schedule(str(path))
        cluster = replay("css", loaded, config.client_names())
        assert cluster.documents() == result.documents()


class TestGuards:
    def test_unknown_version_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_obj({"version": 99, "steps": []})

    def test_unknown_step_kind_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_obj(
                {"version": 1, "steps": [{"kind": "teleport"}]}
            )

    def test_metadata_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "metadata": {}}))
        with pytest.raises(ScheduleError):
            load_metadata(str(path))


class TestCliRecordReplay:
    def test_record_then_replay(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "session.json"
        assert (
            main(
                ["record", "--out", str(out), "--operations", "10",
                 "--latency", "lan"]
            )
            == 0
        )
        assert out.exists()
        capsys.readouterr()
        assert main(["replay", str(out), "--protocol", "cscw"]) == 0
        printed = capsys.readouterr().out
        assert "matches recorded document: True" in printed

    def test_replay_takes_every_protocol_simulate_takes(
        self, tmp_path, capsys
    ):
        # vector's server sends no echo, so it replays what a vector run
        # recorded; `replay --protocol vector` used to be a usage error.
        from repro.cli import main
        from repro.sim import FixedLatency, SimulationRunner, WorkloadConfig

        config = WorkloadConfig(clients=3, operations=10, seed=5)
        result = SimulationRunner("vector", config, FixedLatency(0.002)).run()
        out = tmp_path / "vector.json"
        save_schedule(
            result.schedule,
            str(out),
            metadata={
                "clients": config.client_names(),
                "document": result.documents()["s"],
            },
        )
        assert main(["replay", str(out), "--protocol", "vector"]) == 0
        assert "matches recorded document: True" in capsys.readouterr().out

    def test_a_schedule_that_does_not_fit_the_protocol_is_exit_2(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "css.json"
        recorded = main(
            ["record", "--out", str(out), "--operations", "10",
             "--latency", "lan"]
        )
        assert recorded == 0
        # CSS echoes; vector has no message for those deliveries.
        assert main(["replay", str(out), "--protocol", "vector"]) == 2
        assert "does not fit vector" in capsys.readouterr().out

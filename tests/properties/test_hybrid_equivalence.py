"""Theorem 7.1 as the deployment uses it: a CSS server, buffer clients.

The deployed server runs Algorithm 1 and sends each reader the form
``o{L}`` the operation executed as (CSCW's broadcast), and its origin an
``(opid, serial)`` echo; every client is a
:class:`~repro.jupiter.classic.ClassicClient` — a document and a pending
run.  Under the schedules the CSS simulator records, concurrent writers
included, that hybrid must be indistinguishable from the zoo's CSS: the
same return at every event of every replica, the same behaviour log, and
a server space of the same structure.  The implementation is checked
against the reference, as Gomes et al. check theirs.
"""

from hypothesis import example, given, settings

from repro.common.ids import SERVER_ID
from repro.jupiter.classic import ClassicClient
from repro.jupiter.cluster import Cluster, make_cluster
from repro.jupiter.css import CssServer
from repro.jupiter.messages import ServerEcho, ServerOperation
from repro.model.schedule import ScheduleBuilder
from repro.sim import WorkloadConfig

from tests.properties.conftest import (
    latency_seeds,
    run_simulation,
    workload_configs,
)


class HybridServer(CssServer):
    """A CSS server that answers as the deployed one does."""

    def receive(self, sender, payload):
        outgoing = super().receive(sender, payload)
        executed = self.executed
        return [
            (
                client,
                ServerEcho(broadcast.operation.opid, broadcast.serial)
                if client == sender
                else ServerOperation(
                    executed, broadcast.origin, broadcast.serial,
                    broadcast.prefix,
                ),
            )
            for client, broadcast in outgoing
        ]


class CountingClient(ClassicClient):
    """Records how long the pending run was at each remote operation."""

    runs = []

    def take(self, payload):
        if isinstance(payload, ServerOperation):
            CountingClient.runs.append(self.pending_count)
        return super().take(payload)


def run_both(schedule, names):
    """The zoo's CSS and the hybrid over ``schedule``: clusters and the
    per-replica returns of every event."""
    css = make_cluster("css", names)
    hybrid = Cluster(
        HybridServer(SERVER_ID, list(names)),
        {name: CountingClient(name) for name in names},
    )
    returns = {}
    for name, cluster in (("css", css), ("hybrid", hybrid)):
        execution = cluster.run(schedule)
        returns[name] = [(e.replica, e.returned) for e in execution.do_events()]
    return css, hybrid, returns


def assert_indistinguishable(schedule, names):
    css, hybrid, returns = run_both(schedule, names)
    assert returns["hybrid"] == returns["css"]
    assert hybrid.behaviors == css.behaviors
    assert hybrid.server.space.same_structure(css.server.space)
    assert hybrid.documents() == css.documents()
    for client in hybrid.clients.values():
        assert client.pending_count == 0


@settings(max_examples=25, deadline=None)
@given(config=workload_configs, latency_seed=latency_seeds)
@example(
    config=WorkloadConfig(
        clients=3, operations=24, insert_ratio=0.7, positions="hotspot",
        seed=11,
    ),
    latency_seed=5,
)
def test_the_hybrid_is_css_under_every_recorded_schedule(config, latency_seed):
    result = run_simulation("css", config, latency_seed)
    assert_indistinguishable(result.schedule, config.client_names())


def test_a_broadcast_crosses_a_pending_run_of_three():
    """c1 types three characters and c2 one; the server takes c2's
    first, so c2's broadcast reaches c1 behind three pending ops (three
    CP1 squares), while c2 meets c1's ops one by one, each behind none."""
    schedule = (
        ScheduleBuilder()
        .ins("c1", 0, "a").ins("c1", 1, "b").ins("c1", 2, "c")
        .ins("c2", 0, "x").delete("c2", 0).ins("c2", 0, "y")
        .server_recv("c2", 3).server_recv("c1", 3)
        .client_recv("c1", 6).client_recv("c2", 6)
        .build()
    )
    CountingClient.runs = []
    assert_indistinguishable(schedule, ["c1", "c2"])
    assert max(CountingClient.runs) == 3

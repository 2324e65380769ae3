"""The simulation event loop.

Drives a protocol cluster through a random workload in simulated time:
operation generations fire at their Poisson arrival times, messages travel
through FIFO channels with model-supplied latencies, and every step is
appended to a :class:`~repro.model.schedule.Schedule` so the exact same
interleaving can be replayed against a different protocol (the setup of
every Theorem 7.1 equivalence experiment).

Two network regimes share the loop's skeleton:

* **Reliable** (default, ``faults=None``): the paper's exactly-once FIFO
  channels, realised by :class:`~repro.sim.network.FifoChannelTimer`.
  This path is byte-identical to the original runner — fault machinery is
  never imported, so replay determinism of existing experiments is
  untouched.
* **Faulty** (``faults=FaultPlan(...)``): frames cross a lossy network
  that drops, duplicates and delays them, and replicas may crash and
  restart.  A reliable-session layer (:mod:`repro.jupiter.session`) with
  per-channel sequence numbers, cumulative acks and backoff-driven
  retransmission rebuilds exactly-once FIFO delivery for the protocol
  machines, and crashed CSS clients recover from
  :mod:`repro.jupiter.persistence` checkpoints plus a serial-indexed
  resync.  A durable *server* — write-ahead logged, or quorum-replicated
  over bare :class:`~repro.jupiter.replication.Replica` cores — is the
  deployed :class:`~repro.jupiter.server_core.ServerCore`, driven with
  the calls :class:`~repro.net.server.NetServer` makes, and restarted
  from its log under a new epoch.  Its server is the cluster's, rebound
  at each restart: it integrates each op once, and the step is recorded
  when the serial commits.  The recorded :class:`Schedule` contains each protocol-level
  step exactly once, so it replays on a fault-free cluster — which is
  how the chaos harness checks Theorem 7.1 under faults.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.ids import SERVER_ID, ReplicaId
from repro.errors import SimulationError
from repro.jupiter.cluster import Cluster, make_cluster
from repro.model.execution import Execution
from repro.model.schedule import (
    ClientReceive,
    Generate,
    Read,
    Schedule,
    ServerReceive,
    Step,
)
from repro.sim.network import FifoChannelTimer, FixedLatency, LatencyModel
from repro.sim.workload import WorkloadConfig, WorkloadGenerator


#: The gen-0 threshold of a faulty run (CPython's default is 700).
_FAULTY_GEN0 = 20_000


@contextmanager
def _collector_scope(pause: bool) -> Iterator[None]:
    """Pause the cyclic collector (``pause``), or else raise its gen-0
    threshold, for the body; then restore the enabled flag and the
    thresholds found.

    A reliable run builds no reference cycle (``test_collector_scope.py``
    pins this for every protocol), so collecting during it finds nothing.
    On the way out a pause moves every young object to the oldest
    generation (``freeze`` + ``unfreeze``, O(1), unless something is
    frozen), so the next allocation does not traverse the run's
    survivors.  That hand-off is process-wide: the caller's young
    objects move too, and a garbage cycle among them waits for the next
    full collection.  A faulty run's durable server makes cycles (a
    ``ShardCore`` and its sessions), so it keeps a slower collector.
    """
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    if pause:
        gc.disable()
    else:
        gc.set_threshold(max(threshold[0], _FAULTY_GEN0), *threshold[1:])
    try:
        yield
    finally:
        if pause and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.set_threshold(*threshold)
        if enabled:
            gc.enable()


@dataclass
class SimulationResult:
    """Everything one simulated run produces."""

    cluster: Cluster
    execution: Execution
    schedule: Schedule
    duration: float  # simulated seconds until quiescence
    messages_delivered: int
    #: simulated time each operation was generated, by OpId.
    generated_at: Dict = field(default_factory=dict)
    #: simulated time each (opid, replica) pair saw the operation applied.
    applied_at: Dict = field(default_factory=dict)
    #: transport counters of a fault-injected run; ``None`` on the
    #: reliable path (see :class:`repro.sim.faults.FaultStats`).
    fault_stats: Optional[Any] = None

    def documents(self) -> Dict[ReplicaId, str]:
        return self.cluster.documents()

    @property
    def converged(self) -> bool:
        return len(set(self.documents().values())) == 1

    def propagation_latencies(self) -> Dict:
        """Per-operation time from generation to remote application.

        Maps each OpId to the list of (replica, delay) pairs for every
        *remote* replica that applied it — the user-facing "how stale can
        another user's screen be" metric of optimistic replication.
        """
        latencies: Dict = {}
        for (opid, replica), when in self.applied_at.items():
            start = self.generated_at.get(opid)
            if start is None:
                continue
            latencies.setdefault(opid, []).append((replica, when - start))
        return latencies


class SimulationRunner:
    """Run one protocol under one workload and latency model.

    ``faults`` installs a :class:`~repro.sim.faults.FaultPlan`; ``rto``
    overrides the retransmission policy the faulty path uses.  Both are
    ignored (and never imported) on the reliable path.
    """

    def __init__(
        self,
        protocol: str = "css",
        workload: Optional[WorkloadConfig] = None,
        latency: Optional[LatencyModel] = None,
        initial_text: str = "",
        observe_after_receive: bool = True,
        final_reads: bool = True,
        faults: Optional[Any] = None,
        rto: Optional[Any] = None,
    ) -> None:
        self.protocol = protocol
        self.workload = workload or WorkloadConfig()
        self.latency = latency or FixedLatency()
        self.initial_text = initial_text
        self.observe_after_receive = observe_after_receive
        self.final_reads = final_reads
        self.faults = faults
        self.rto = rto

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        with _collector_scope(pause=self.faults is None):
            if self.faults is not None:
                return _FaultyRun(self).run()
            return self._run_reliable()

    def _run_reliable(self) -> SimulationResult:
        clients = self.workload.client_names()
        cluster = make_cluster(
            self.protocol,
            clients,
            initial_text=self.initial_text,
            observe_after_receive=self.observe_after_receive,
        )
        generator = WorkloadGenerator(self.workload)
        timer = FifoChannelTimer()
        steps: List[Step] = []
        counter = itertools.count()
        heap: List[Tuple[float, int, Tuple]] = []

        for time, client in generator.generation_times():
            heapq.heappush(heap, (time, next(counter), ("gen", client)))

        now = 0.0
        delivered = 0
        generated_at: dict = {}
        applied_at: dict = {}
        while heap:
            now, _, action = heapq.heappop(heap)
            kind = action[0]
            if kind == "gen":
                client = action[1]
                length = len(cluster.clients[client].document)
                spec = generator.next_spec(client, length)
                cluster.generate(client, spec)
                generated_at[cluster.behaviors[client][-1].opid] = now
                steps.append(Generate(client, spec))
                arrival = timer.delivery_time(
                    self.latency, client, SERVER_ID, now
                )
                heapq.heappush(
                    heap, (arrival, next(counter), ("srv", client))
                )
            elif kind == "srv":
                client = action[1]
                before = {
                    name: cluster.pending_to_client(name) for name in clients
                }
                cluster.server_receive(client)
                steps.append(ServerReceive(client))
                for name in clients:
                    newly_queued = cluster.pending_to_client(name) - before[name]
                    for _ in range(newly_queued):
                        arrival = timer.delivery_time(
                            self.latency, SERVER_ID, name, now
                        )
                        heapq.heappush(
                            heap, (arrival, next(counter), ("cli", name))
                        )
            elif kind == "cli":
                client = action[1]
                cluster.client_receive(client)
                steps.append(ClientReceive(client))
                delivered += 1
                last = cluster.behaviors[client][-1]
                if last.action == "apply" and last.opid is not None:
                    applied_at[(last.opid, client)] = now
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown simulation action {action!r}")

        if cluster.in_flight():
            raise SimulationError(
                f"{cluster.in_flight()} messages still in flight after the "
                "event loop drained; FIFO timing is broken"
            )

        if self.final_reads:
            for replica in [*sorted(cluster.clients), SERVER_ID]:
                cluster.read(replica)
                steps.append(Read(replica))

        return SimulationResult(
            cluster=cluster,
            execution=cluster.recorder.finish(),
            schedule=Schedule(steps),
            duration=now,
            messages_delivered=delivered,
            generated_at=generated_at,
            applied_at=applied_at,
        )


class _FaultyRun:
    """One fault-injected run: lossy frames + reliable sessions + crashes.

    A client's *frame* carries its payload, which the client keeps until
    an ack covers its seq; a server's names its payload by sequence
    number, and the cluster's FIFO queues double as the server's send
    buffers (popped exactly when the session layer releases the seq,
    strictly in order).  The recorded schedule therefore contains each
    protocol step exactly once, in an order a fault-free cluster can
    replay.
    """

    #: epsilon used when deferring a retransmission behind an in-flight ack.
    _EPS = 1e-9

    def __init__(self, runner: SimulationRunner) -> None:
        from repro.jupiter.replication import Replica
        from repro.jupiter.session import (
            RetransmitPolicy,
            SessionReceiver,
            SessionSender,
        )
        from repro.sim.faults import FaultStats

        from repro.obs import get_obs

        self.runner = runner
        self.latency = runner.latency
        self._obs = get_obs()
        self.plan = runner.faults.fresh()
        self.clients = runner.workload.client_names()
        self._validate()
        self.cluster = make_cluster(
            runner.protocol,
            self.clients,
            initial_text=runner.initial_text,
            observe_after_receive=runner.observe_after_receive,
        )
        self.policy = runner.rto or RetransmitPolicy(seed=self.plan.seed)
        self.stats = FaultStats()
        self.steps: List[Step] = []
        self.counter = itertools.count()
        self.heap: List[Tuple[float, int, Tuple]] = []
        self.generated_at: dict = {}
        self.applied_at: dict = {}
        self.delivered = 0
        self.progress_time = 0.0

        channels = [(name, SERVER_ID) for name in self.clients]
        channels += [(SERVER_ID, name) for name in self.clients]
        self.senders = {ch: SessionSender(ch) for ch in channels}
        self.receivers = {ch: SessionReceiver(ch) for ch in channels}
        #: each client's unacknowledged payloads by seq (a client frame
        #: carries its payload), trimmed by acks, kept in its checkpoint
        self.outbox: Dict[ReplicaId, Dict[int, Any]] = {n: {} for n in self.clients}
        #: payloads consumed per server-to-client channel, in release
        #: (= serial) order — the log crash resync re-ships from.
        self.released: Dict[ReplicaId, List[Any]] = {
            name: [] for name in self.clients
        }
        #: sender epoch per replica.  A client's epoch bumps on restore so
        #: retransmission chains from a previous incarnation die off; the
        #: *server's* epoch bumps on crash, which additionally kills its
        #: in-flight frames and acks (they reference a dead incarnation —
        #: see :meth:`_on_frame`).
        self.epochs: Dict[ReplicaId, int] = {
            name: 0 for name in [*self.clients, SERVER_ID]
        }
        self.crashed: set = set()
        self.checkpoints: Dict[ReplicaId, dict] = {}
        #: a durable server's replica cores by roster id (``None`` unless
        #: quorum-replicated); a dead one keeps its disk — its core
        self.cores: Optional[Dict[ReplicaId, Any]] = None
        #: a durable server's core: its shard, built from its log at
        #: startup as at every restart (the sessions are the server's
        #: channel ends), and the replica of the current view's primary
        #: (a WAL server's is a roster of one)
        self.server_core: Optional[Any] = None
        if self.plan.replicas:
            # The logical server SERVER_ID is served by whichever roster
            # member leads the current view; every log is built under
            # SERVER_ID, as NetServer builds its shard's.
            self.roster = [
                f"{SERVER_ID}{i}" for i in range(self.plan.replicas)
            ]
            self.cores = {
                rid: Replica(self.roster, rid, self._empty_log())
                for rid in self.roster
            }
            self.alive = dict.fromkeys(self.roster, True)
            self._obs.repl_commit_quorum.set(self.cores[self.roster[0]].quorum)
            #: replication traffic is FIFO per replica pair: replicas talk
            #: TCP in a deployment, so the lossy-channel adversary applies
            #: to the client-server edges only, not the replica backbone.
            self.repl_timer = FifoChannelTimer()
            self._outage_replica: Dict[float, ReplicaId] = {}
        self.applies_since: Dict[ReplicaId, int] = {}
        self.deferred_gens: Dict[ReplicaId, int] = {
            name: 0 for name in self.clients
        }
        #: FIFO timer reused for the ack path: cumulative acks arrive in
        #: order, and its per-channel last-delivery state lets the
        #: retransmission timer wait out an ack already in flight.
        self.ack_timer = FifoChannelTimer()
        self.pending_gens = 0
        self.pending_lifecycle = 0
        if self.cores is not None or self.plan.wal_enabled:
            from repro.jupiter.server_core import ServerCore
            from repro.jupiter.shard import ShardCore

            replica = (  # view 0's primary leads first
                self.cores[self.roster[0]]
                if self.cores is not None
                else Replica([SERVER_ID], SERVER_ID, self._empty_log())
            )
            self.server_core = ServerCore(
                ShardCore("sim", replica.log), replica, self.cores is not None
            )
            self._restart("startup", 0.0)

    def _validate(self) -> None:
        if self.plan.crashes and self.runner.protocol != "css":
            raise SimulationError(
                "crash/restore requires the css protocol: recovery restores "
                "repro.jupiter.persistence snapshots, which exist for CSS "
                "replicas only (use FaultPlan.without_crashes() otherwise)"
            )
        if self.plan.wal_enabled and self.runner.protocol != "css":
            raise SimulationError(
                "the server write-ahead log (and therefore server "
                "crash/restore) requires the css protocol: recovery "
                "replays the log through a CssServer"
            )
        roster = set(self.clients)
        for crash in self.plan.crashes:
            if crash.client not in roster:
                raise SimulationError(
                    f"fault plan crashes unknown client {crash.client!r}"
                )

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        generator = WorkloadGenerator(self.runner.workload)
        for time, client in generator.generation_times():
            self._push(time, ("gen", client))
            self.pending_gens += 1
        for crash in self.plan.crashes:
            self._push(crash.at, ("crash", crash.client))
            self._push(crash.restore_at, ("restore", crash.client))
            self.pending_lifecycle += 2
        for crash in self.plan.server_crashes:
            self._push(crash.at, ("scrash", crash))
            self._push(crash.restore_at, ("srestore", crash))
            self.pending_lifecycle += 2
        for client in self.plan.crashed_clients():
            self._checkpoint(client)

        now = 0.0
        while self.heap:
            now, _, event = heapq.heappop(self.heap)
            kind = event[0]
            if kind == "gen":
                self._on_generate(event[1], generator, now)
            elif kind == "frame":
                self._on_frame(*event[1:], now)
            elif kind == "ack":
                self._on_ack(event[1], event[2], event[3], event[4], now)
            elif kind == "rto":
                self._on_rto(event[1], event[2], event[3], event[4], event[5], now)
            elif kind == "crash":
                self._on_crash(event[1], now)
            elif kind == "restore":
                self._on_restore(event[1], now)
            elif kind == "scrash":
                self._on_server_crash(event[1], now)
            elif kind == "srestore":
                self._on_server_restore(event[1], now)
            elif kind == "repl":
                self._on_repl(event[1], event[2], event[3], now)
            elif kind == "rack":
                self._on_repl_ack(event[1], event[2], event[3], now)
            elif kind == "sview":
                self._on_view_change(now)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown simulation event {event!r}")
            if self._quiescent():
                break

        if self.cluster.in_flight() or not self._quiescent():
            raise SimulationError(
                f"{self.cluster.in_flight()} messages still in flight after "
                "the faulty event loop drained; the session layer failed to "
                "reconstruct reliable delivery"
            )

        if self.runner.final_reads:
            for replica in [*sorted(self.cluster.clients), SERVER_ID]:
                self.cluster.read(replica)
                self.steps.append(Read(replica))

        if self.server_core is not None:
            log, commit = self.server_core.shard.wal, self.server_core.commit
            self.stats.wal_appends = log.appends
            if commit is not None and log.last_serial > commit:
                raise SimulationError(
                    f"run ended with serials {commit + 1}..{log.last_serial} "
                    "serialised but never committed"
                )
        if self.cores is not None:
            cores = self.cores.values()
            self.stats.view_changes = sum(c.view_changes for c in cores)
            self.stats.repl_stale_rejected = sum(
                c.stale_rejected for c in cores
            )

        return SimulationResult(
            cluster=self.cluster,
            execution=self.cluster.recorder.finish(),
            schedule=Schedule(self.steps),
            duration=self.progress_time,
            messages_delivered=self.delivered,
            generated_at=self.generated_at,
            applied_at=self.applied_at,
            fault_stats=self.stats,
        )

    def _quiescent(self) -> bool:
        """All traffic delivered, acknowledged, and no lifecycle pending.

        Pending retransmission timers for acknowledged frames are *not*
        progress — they fire as no-ops — so quiescence is decided from
        protocol and session state, not from heap emptiness.
        """
        if self.pending_gens or self.pending_lifecycle:
            return False
        if self.cluster.in_flight():
            return False
        return all(s.outstanding == 0 for s in self.senders.values())

    def _push(self, time: float, event: Tuple) -> None:
        heapq.heappush(self.heap, (time, next(self.counter), event))

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_generate(self, client: ReplicaId, generator, now: float) -> None:
        if client in self.crashed:
            # The user cannot type into a crashed editor: the keystroke
            # happens once the client is back.
            self.deferred_gens[client] += 1
            self.stats.deferred_generations += 1
            return
        self.pending_gens -= 1
        self.progress_time = now
        length = len(self.cluster.clients[client].document)
        spec = generator.next_spec(client, length)
        message = self.cluster.generate(client, spec)
        self.generated_at[self.cluster.behaviors[client][-1].opid] = now
        self.steps.append(Generate(client, spec))
        seq = self.senders[(client, SERVER_ID)].send()
        self.outbox[client][seq] = message.payload
        self._transmit((client, SERVER_ID), seq, now, attempt=1)
        if client in self.checkpoints:
            # Write-ahead persistence: a generated operation survives any
            # later crash, so recovery never loses serialised history.
            self._checkpoint(client)

    def _on_frame(
        self,
        sender: ReplicaId,
        recipient: ReplicaId,
        seq: int,
        sent_epoch: int,
        body: Any,
        now: float,
    ) -> None:
        if sender == SERVER_ID and sent_epoch != self.epochs[SERVER_ID]:
            # An in-flight frame from a dead server incarnation: the crash
            # loses it (ISSUE semantics).  Client-origin frames carry no
            # such fate — a restored client *resumes* its sender state, so
            # its old frames are ordinary duplicates, not stale ones.
            self.stats.frames_lost_in_flight += 1
            return
        if recipient in self.crashed:
            self.stats.frames_lost_to_crash += 1
            return
        receiver = self.receivers[(sender, recipient)]
        duplicates, buffered = receiver.duplicates, receiver.buffered
        core = self.server_core
        if recipient == SERVER_ID and core is not None:
            # The write path: the session parks or releases the payload, the
            # core writes each one released, a replicated primary ships the
            # record.  The sessions stay connected: no clock or grace applies.
            session = core.shard.sessions[sender]
            for payload in core.shard.accept(session, seq, None, body):
                releases = core.write(session, payload)
                if self.cores is not None:
                    leader, record = core.replica, core.shard.wal.records[-1]
                    head = {"epoch": leader.epoch, "committed": leader.committed}
                    self._ship("append", {**head, "record": record}, now)
                self._release(releases, now)
            ack = core.stamp(session)["ack"]  # gated on the commit floor
        else:
            for _ in range(receiver.receive(seq)):
                if recipient != SERVER_ID:
                    self._deliver_to_client(recipient, now)
                else:
                    self._deliver_to_server(sender, now)
            ack = receiver.cumulative_ack
        self.stats.duplicates_suppressed += receiver.duplicates - duplicates
        self.stats.out_of_order_buffered += receiver.buffered - buffered
        # Always (re-)acknowledge cumulatively — a duplicate frame means a
        # previous ack was probably lost.
        self._send_ack((sender, recipient), ack, now)

    def _deliver_to_server(self, client: ReplicaId, now: float) -> None:
        """No shard core: the cluster's server receives ``client``'s next
        op, and each message it queues goes out on its channel."""
        self.progress_time = now
        before = {
            name: self.cluster.pending_to_client(name) for name in self.clients
        }
        self.cluster.server_receive(client)
        self.steps.append(ServerReceive(client))
        for name in self.clients:
            outbound = self.senders[(SERVER_ID, name)]
            for _ in range(self.cluster.pending_to_client(name) - before[name]):
                self._transmit(
                    (SERVER_ID, name), outbound.send(), now, attempt=1
                )

    # ------------------------------------------------------------------
    # A durable server, driven as NetServer drives it
    # ------------------------------------------------------------------
    def _empty_log(self):
        from repro.jupiter.persistence import ServerWriteAheadLog

        return ServerWriteAheadLog(
            SERVER_ID, self.clients, initial_text=self.runner.initial_text
        )

    def _release(self, releases, now: float) -> None:
        """Record the server step the shard took for every serial the core
        released, in order; the frames go out numbered seq = serial, and
        an origin owed a commit-gated acknowledgement is sent it.  Then
        observe the failover latency, once the new view is certified."""
        core = self.server_core
        for serial, origin, fanout, _executed, ack_due in releases:
            self.progress_time = now
            self.cluster.record_server_receive(
                origin.client,
                [(session.client, broadcast) for session, broadcast in fanout],
                self._served_document(serial),
            )
            self.steps.append(ServerReceive(origin.client))
            for session, _broadcast in fanout:
                self._transmit((SERVER_ID, session.client), serial, now, attempt=1)
            if ack_due:
                ack = core.stamp(origin)["ack"]
                self._send_ack((origin.client, SERVER_ID), ack, now)
        latency = core.failover_done(now)
        if latency is not None:
            self.stats.failover_latencies.append(latency)

    def _served_document(self, serial: int) -> str:
        """The shard server's document at ``serial``; behind an
        uncommitted suffix, read without pinning lazy nodes."""
        server = self.server_core.shard.server
        if serial == server.oracle.last_serial:
            return server.document.as_string()
        key = server.oracle.dense(serial)
        return next(server.space.iter_documents([key]))[1].as_string()

    def _deliver_to_client(self, client: ReplicaId, now: float) -> None:
        self.progress_time = now
        message = self.cluster.client_receive(client)
        self.steps.append(ClientReceive(client))
        self.delivered += 1
        self.released[client].append(message.payload)
        last = self.cluster.behaviors[client][-1]
        if last.action == "apply" and last.opid is not None:
            self.applied_at[(last.opid, client)] = now
        if client in self.checkpoints:
            self.applies_since[client] = self.applies_since.get(client, 0) + 1
            if self.applies_since[client] >= self.plan.snapshot_every:
                self._checkpoint(client)

    # ------------------------------------------------------------------
    # Replication: the backups' feed and view changes, on bare cores
    # ------------------------------------------------------------------
    def _ship(self, call: str, fields, now: float) -> None:
        """The primary sends ``repl_<call>`` to every alive backup."""
        me = self.server_core.replica.me
        for rid in self.roster:
            if rid != me and self.alive[rid]:
                arrival = self.repl_timer.delivery_time(self.latency, me, rid, now)
                self._push(arrival, ("repl", rid, call, fields))

    def _on_repl(self, replica: ReplicaId, call: str, fields, now: float) -> None:
        """A ``repl_append`` (``call``) or ``repl_install`` reaches a
        backup, whose core answers it; a durable append or install is
        acknowledged (a stale epoch is owed no ack)."""
        if not self.alive[replica]:
            return
        reply = getattr(self.cores[replica], call)(**fields)
        if reply.accepted:
            arrival = self.repl_timer.delivery_time(
                self.latency, replica, self.server_core.replica.me, now
            )
            ack = ("rack", replica, reply.fields["serial"], reply.fields["epoch"])
            self._push(arrival, ack)

    def _on_repl_ack(
        self, replica: ReplicaId, serial: int, epoch: int, now: float
    ) -> None:
        if SERVER_ID in self.crashed:
            # The primary that would process this ack is dead.  The
            # backup's durable append stands regardless — the election
            # reads it straight from the log.
            self.stats.frames_lost_to_crash += 1
            return
        core = self.server_core
        self._release(core.certify(core.replica.record_ack(replica, serial, epoch)), now)

    def _on_view_change(self, now: float) -> None:
        """The failure detector fired: the next view's primary takes over.

        The election NetServer runs, on bare cores: the successor stands
        for its next view and every other survivor answers its seek.  The
        logical server moves to the successor, whose core elects — adopts
        the best log and restarts the shard on it — and its start-view
        install ships to the backups, whose acks re-certify the adopted
        uncommitted suffix under the new epoch.  Anything only the dead
        primary held is gone — and was never acknowledged, because acks
        are gated on the commit floor.
        """
        from repro.jupiter.replication import next_view, primary_for

        self.pending_lifecycle -= 1
        self.progress_time = now
        survivors = [rid for rid in self.roster if self.alive[rid]]
        floor = max(replica.committed for replica in self.cores.values())
        # The one idealisation: commit knowledge, a frame field on the
        # wire, reaches every survivor before the election.
        for rid in survivors:
            self.cores[rid].learn_commit(floor)
        core = self.server_core
        following = next_view(core.replica.epoch, self.roster, survivors)
        successor = self.cores[primary_for(following, self.roster)]
        target = successor.candidacy()
        replies = [
            self.cores[rid].seek(target)
            for rid in survivors
            if rid != successor.me
        ]
        offers = [reply.fields for reply in replies if reply.accepted]
        core.replica = successor  # the logical server moves with the view
        releases = core.elect(target, offers, now)
        if releases is None:
            raise SimulationError(f"view {target} found no quorum of offers")
        self._restart("failover", now)
        self._ship("install", successor.start_view(), now)
        self._release(releases, now)

    def _on_ack(
        self,
        sender: ReplicaId,
        recipient: ReplicaId,
        cumulative: int,
        sent_epoch: int,
        now: float,
    ) -> None:
        # ``sender``/``recipient`` name the *data* direction; the ack was
        # emitted by ``recipient`` and arrives at ``sender``.
        if recipient == SERVER_ID and sent_epoch != self.epochs[SERVER_ID]:
            self.stats.frames_lost_in_flight += 1
            return  # an ack from a dead server incarnation
        if sender in self.crashed:
            self.stats.frames_lost_to_crash += 1
            return
        if sender != SERVER_ID:
            outbox = self.outbox[sender]
            for seq in [s for s in outbox if s <= cumulative]:
                del outbox[seq]
        elif self.server_core is not None:
            # The server's half of a client's ack, taken as a data frame's.
            shard = self.server_core.shard
            shard.take_ack(shard.sessions[recipient], cumulative)
            return
        self.senders[(sender, recipient)].ack(cumulative)

    def _on_rto(
        self,
        sender: ReplicaId,
        recipient: ReplicaId,
        seq: int,
        attempt: int,
        epoch: int,
        now: float,
    ) -> None:
        if epoch != self.epochs.get(sender, 0):
            return  # a previous incarnation's timer; recovery rearmed it
        if sender in self.crashed:
            return  # rearmed wholesale on restore
        session = self.senders[(sender, recipient)]
        if seq <= session.acked:
            return  # acknowledged in the meantime: timer is a no-op
        # An ack already in flight on the reverse path may cover this
        # frame; wait it out before burning a retransmission (this is the
        # FifoChannelTimer last-delivery reuse).
        reverse_arrival = self.ack_timer.last_delivery(recipient, sender)
        if reverse_arrival is not None and reverse_arrival > now:
            self._push(
                reverse_arrival + self._EPS,
                ("rto", sender, recipient, seq, attempt, epoch),
            )
            return
        self.stats.retransmissions += 1
        self._obs.session_retransmits.inc()
        self._transmit((sender, recipient), seq, now, attempt=attempt + 1)

    def _on_crash(self, client: ReplicaId, now: float) -> None:
        self.pending_lifecycle -= 1
        self.crashed.add(client)
        self.stats.crashes += 1

    def _on_restore(self, client: ReplicaId, now: float) -> None:
        from repro.jupiter.persistence import restore_checkpoint

        self.pending_lifecycle -= 1
        self.progress_time = now
        checkpoint = self.checkpoints[client]
        restored = restore_checkpoint(checkpoint)
        self.cluster.replace_client(
            client, restored, behaviors_keep=checkpoint["behaviors_len"]
        )
        # Re-ship everything the client had consumed after the checkpoint,
        # in serial order: ``delivered`` was cut from this same list.
        missed = self.released[client][checkpoint["delivered"]:]
        for payload in missed:
            self.cluster.resync_deliver(client, payload)
        self.stats.resynced_ops += len(missed)
        # Receiver half: the reorder buffer was volatile; unreleased frames
        # are still unacknowledged at the server and will be retransmitted.
        self.receivers[(SERVER_ID, client)].drop_reorder_buffer()
        # Sender half: roll back to the checkpointed sequence state and
        # rearm retransmission for everything unacknowledged.
        sender = self.senders[(client, SERVER_ID)]
        sender.restore(checkpoint["session"])
        self.outbox[client] = dict(checkpoint["outbox"])
        self.epochs[client] += 1
        for seq in sender.unacked():
            self.stats.retransmissions += 1
            self._obs.session_retransmits.inc()
            self._transmit((client, SERVER_ID), seq, now, attempt=1)
        self.crashed.discard(client)
        self.stats.restores += 1
        # Keystrokes queued while the editor was down happen now.
        while self.deferred_gens[client]:
            self.deferred_gens[client] -= 1
            self._push(now + self._EPS, ("gen", client))
        # The recovered state is durable: checkpoint it so a later crash
        # does not redo this resync.
        self._checkpoint(client)

    def _on_server_crash(self, spec, now: float) -> None:
        self.pending_lifecycle -= 1
        self.stats.server_crashes += 1
        if self.cores is not None:
            core = self.server_core
            leader = core.replica
            target = spec.replica
            rid = self.roster[target] if isinstance(target, int) else leader.me
            self._outage_replica[spec.at] = rid
            self.alive[rid] = False
            if rid == leader.me:
                # The serving endpoint is gone until the failure detector
                # fires and the successor takes over: client frames hit
                # the crash check, and the dead incarnation's in-flight
                # frames/acks/timers die with the epoch bump.
                self.crashed.add(SERVER_ID)
                self.epochs[SERVER_ID] += 1
                if core.failover_from is None:
                    core.failover_from = now
                self._push(now + self.plan.failover_delay, ("sview",))
                self.pending_lifecycle += 1
            return
        self.crashed.add(SERVER_ID)
        # The server's epoch bumps at *crash* time (a client's bumps at
        # restore): every frame and ack the dead incarnation still has in
        # flight is dropped on arrival (_on_frame/_on_ack), and its armed
        # retransmission timers die (the epoch test in _on_rto).  Client
        # retransmission timers keep firing into the void — their frames
        # hit the crash check until the server is back.
        self.epochs[SERVER_ID] += 1

    def _on_server_restore(self, spec, now: float) -> None:
        self.pending_lifecycle -= 1
        self.progress_time = now
        self.stats.server_restores += 1
        if self.cores is not None:
            # A killed replica rejoins as a *backup* by state transfer —
            # the primary's start-view install — whatever role it held
            # before; the view's own primary restarts on its disk.  Its
            # durable copy counts toward quorums at once.
            rid = self._outage_replica.pop(spec.at)
            self.alive[rid] = True
            leader = self.server_core.replica
            if rid != leader.me:
                self.cores[rid].install(**leader.start_view())
            log = self.cores[rid].log
            self._obs.trace(
                "repl.rejoin", replica=rid, at_serial=log.last_serial
            )
            if SERVER_ID not in self.crashed:
                newly = leader.record_ack(rid, log.last_serial, leader.epoch)
                self._release(self.server_core.certify(newly), now)
            return
        core = self.server_core
        core.restart(core.shard.wal, now)  # a WAL server released each op at once
        self._restart("WAL recovery", now)

    def _restart(self, what: str, now: float) -> None:
        """The core (re)built its shard from a log, as a deployment does;
        now each client says hello at its live cursor and the core
        welcomes it, re-shipping the committed broadcasts it has not
        consumed (an adopted uncommitted suffix is released at commit),
        and the sessions become the server ends of the lossy channels.
        The simulator can do what a deployment cannot: compare the
        re-shipped broadcasts against the volatile send buffers.
        """
        from repro.jupiter.server_core import Hello

        core = self.server_core
        shard = core.shard
        self.cluster.server = shard.server
        self.crashed.discard(SERVER_ID)
        for client in self.clients:
            hello = Hello(client, shard, len(self.released[client]), None)
            session, _cursor, _state, missed, _ = core.welcome(hello, now)
            # The rebuilt broadcasts must reproduce the volatile send
            # buffer exactly — same payloads, same serial order — so
            # delivery resumes from the original (identity-carrying)
            # messages.
            queued = self.cluster.queued_payloads_to(client)
            if tuple(missed) != queued:
                raise SimulationError(
                    f"{what}: resync for {client} rebuilt {len(missed)} "
                    f"broadcasts but the send buffer holds {len(queued)}; "
                    "the log diverges from what the server had shipped"
                )
            self.stats.server_resynced_ops += len(missed)
            self.receivers[(client, SERVER_ID)] = session.receiver
            self.senders[(SERVER_ID, client)] = session.sender
            # Parked out-of-order frames died with the process and the
            # clients' senders retransmit them; frame seq equals serial
            # on every s->c channel, so the re-shipped suffix goes out
            # under the new epoch (bumped at crash time).
            for broadcast in missed:
                self.stats.retransmissions += 1
                self._obs.session_retransmits.inc()
                self._transmit(
                    (SERVER_ID, client), broadcast.serial, now, attempt=1
                )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _transmit(
        self,
        channel: Tuple[ReplicaId, ReplicaId],
        seq: int,
        now: float,
        attempt: int,
    ) -> None:
        """Put one frame on the lossy wire and arm its retransmit timer."""
        sender, recipient = channel
        decision = self.plan.decide(channel, now)
        self.stats.frames_sent += 1
        self.stats.frames_dropped += decision.dropped
        self.stats.frames_duplicated += decision.duplicated
        epoch = self.epochs.get(sender, 0)
        body = self.outbox[sender][seq] if recipient == SERVER_ID else None
        for extra in decision.extra_delays:
            arrival = now + self.latency.delay(sender, recipient, now) + extra
            self._push(arrival, ("frame", sender, recipient, seq, epoch, body))
        deadline = now + self.policy.timeout(attempt)
        self._push(deadline, ("rto", sender, recipient, seq, attempt, epoch))

    def _send_ack(
        self,
        channel: Tuple[ReplicaId, ReplicaId],
        cumulative: int,
        now: float,
    ) -> None:
        """Send a cumulative ack back across the lossy reverse channel."""
        sender, recipient = channel  # data direction; the ack flows back
        decision = self.plan.decide((recipient, sender), now)
        self.stats.acks_sent += 1
        self.stats.acks_dropped += decision.dropped
        epoch = self.epochs.get(recipient, 0)  # the ack's actual emitter
        for extra in decision.extra_delays:
            arrival = (
                self.ack_timer.delivery_time(self.latency, recipient, sender, now)
                + extra
            )
            self._push(arrival, ("ack", sender, recipient, cumulative, epoch))

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoint(self, client: ReplicaId) -> None:
        from repro.jupiter.persistence import checkpoint_client

        # The resync cursor is the number of payloads the *replica* has
        # consumed, not the session receiver's released total: a checkpoint
        # cut mid-release-burst (the receiver releases a whole in-order run
        # before the event loop pops it message by message) would otherwise
        # claim messages the snapshot never integrated, and recovery would
        # skip them.
        self.checkpoints[client] = checkpoint_client(
            self.cluster.clients[client],
            session=self.senders[(client, SERVER_ID)].state(),
            behaviors_len=len(self.cluster.behaviors[client]),
            delivered=len(self.released[client]),
        )
        self.checkpoints[client]["outbox"] = dict(self.outbox[client])
        self.applies_since[client] = 0
        self.stats.checkpoints += 1


def replay(
    protocol: str,
    schedule: Schedule,
    clients: Sequence[ReplicaId],
    initial_text: str = "",
    observe_after_receive: bool = True,
) -> Cluster:
    """Run ``schedule`` (typically recorded by a runner) on ``protocol``."""
    cluster = make_cluster(
        protocol,
        clients,
        initial_text=initial_text,
        observe_after_receive=observe_after_receive,
    )
    cluster.run(schedule)
    return cluster

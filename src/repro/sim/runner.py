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
  — is the deployed :class:`~repro.jupiter.shard.ShardCore`: it
  serialises, logs and compacts through the core's own write path, and
  survives a crash or a failover the way a deployment restarts, rebuilt
  from its log and resynced at every client's cursor under a new epoch
  (its in-flight frames and acks died with the old incarnation).  The
  recorded :class:`Schedule` contains each protocol-level step
  exactly once, so it replays on a fault-free cluster — which is how the
  chaos harness checks Theorem 7.1 under faults.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
        if self.faults is not None:
            return _FaultyRun(self).run()
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

    Physical *frames* reference protocol messages by per-channel sequence
    number; the cluster's FIFO queues double as the sender-side message
    buffers (a frame's payload is popped exactly when the session layer
    releases its sequence number, which happens strictly in order).  The
    recorded schedule therefore contains each protocol step exactly once,
    in an order a fault-free cluster can replay.
    """

    #: epsilon used when deferring a retransmission behind an in-flight ack.
    _EPS = 1e-9

    def __init__(self, runner: SimulationRunner) -> None:
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
        self.wal = None
        self.group = None
        if self.plan.replicas:
            from repro.jupiter.replication import ReplicatedWal

            # Quorum-replicated durability: the logical server SERVER_ID
            # is *served by* whichever roster member is the current view's
            # primary.  Schedule/behaviour bookkeeping keeps SERVER_ID —
            # the replica group is the durability substrate underneath.
            self.group = ReplicatedWal(
                [f"{SERVER_ID}{i}" for i in range(self.plan.replicas)],
                self.clients,
                snapshot_every=self.plan.snapshot_every,
                initial_text=runner.initial_text,
            )
            #: replication traffic is FIFO per replica pair: replicas talk
            #: TCP in a deployment, so the lossy-channel adversary applies
            #: to the client-server edges only, not the replica backbone.
            self.repl_timer = FifoChannelTimer()
            #: per-origin proposal/commit cursors, set by every restart;
            #: their difference is the peek index of the origin's next
            #: queued-but-uncommitted op.
            self.proposed_from: Dict[ReplicaId, int] = {}
            self.popped_from: Dict[ReplicaId, int] = {}
            self.commits_done = 0
            self._failover_from: Optional[float] = None
            self._outage_replica: Dict[float, ReplicaId] = {}
        elif self.plan.wal_enabled:
            from repro.jupiter.persistence import ServerWriteAheadLog

            self.wal = ServerWriteAheadLog(
                SERVER_ID,
                self.clients,
                snapshot_every=self.plan.snapshot_every,
                initial_text=runner.initial_text,
            )
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
        #: a durable server's shard core, built from its log at startup
        #: as at every restart; its sessions are the server's channel ends
        self.shard = None
        if self.wal is not None or self.group is not None:
            log = self.wal or self.group.committed_log()
            self._restart(log, "startup", 0.0)

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
                self._on_frame(event[1], event[2], event[3], event[4], now)
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
            elif kind == "svw":
                self._on_start_view(event[1], event[2], event[3], now)
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

        log = self.group.primary_log if self.group is not None else self.wal
        if log is not None:
            self.stats.wal_appends = log.appends
            self.stats.wal_compactions = log.compactions
            self.stats.wal_records_truncated = log.records_truncated
        if self.group is not None:
            self.stats.view_changes = self.group.view_changes
            self.stats.repl_stale_rejected = self.group.stale_rejected
            if self.commits_done != self.group.committed:
                raise SimulationError(
                    f"run ended with {self.group.committed} committed "
                    f"serials but only {self.commits_done} delivered to "
                    "the server"
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
        self.cluster.generate(client, spec)
        self.generated_at[self.cluster.behaviors[client][-1].opid] = now
        self.steps.append(Generate(client, spec))
        seq = self.senders[(client, SERVER_ID)].send()
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
        duplicates = receiver.duplicates
        buffered = receiver.buffered
        released = receiver.receive(seq)
        self.stats.duplicates_suppressed += receiver.duplicates - duplicates
        self.stats.out_of_order_buffered += receiver.buffered - buffered
        for _ in range(released):
            if recipient != SERVER_ID:
                self._deliver_to_client(recipient, now)
            elif self.group is not None:
                self._propose_from(sender, now)
            else:
                self._deliver_to_server(sender, now)
        # Always (re-)acknowledge cumulatively — a duplicate frame means a
        # previous ack was probably lost.  With a replica group the
        # server's ack is gated on the quorum commit floor: an op is only
        # acknowledged once it can no longer be lost to a primary crash.
        ack_value = receiver.cumulative_ack
        if self.group is not None and recipient == SERVER_ID:
            ack_value = self.group.committed_ack(sender)
        self._send_ack((sender, recipient), ack_value, now)

    def _deliver_to_server(self, client: ReplicaId, now: float) -> None:
        self.progress_time = now
        before = {
            name: self.cluster.pending_to_client(name) for name in self.clients
        }
        write = self._serialise if self.wal is not None else None
        self.cluster.server_receive(client, write)
        self.steps.append(ServerReceive(client))
        if self.group is not None and self.group.primary_log.should_compact():
            # Replicated mode: the record was logged at proposal time and
            # this delivery *is* the commit.  Compaction clamps to the
            # commit floor inside the group.
            self.group.compact(
                self.cluster.server,
                retain_after=self.shard.floor(now, 0.0, pins=False),
            )
        for name in self.clients:
            newly_queued = self.cluster.pending_to_client(name) - before[name]
            sender = self.senders[(SERVER_ID, name)]
            if write is None:  # else the shard numbered them seq = serial
                for _ in range(newly_queued):
                    sender.send()
            for seq in range(sender.next_seq - newly_queued, sender.next_seq):
                self._transmit((SERVER_ID, name), seq, now, attempt=1)

    def _serialise(self, origin: ReplicaId, payload: Any) -> List[Tuple]:
        """A WAL server's write path, as deployed: logged (and compacted
        at the acked cursors) before any frame hits the wire.  Its
        sessions stay connected, so no clock or grace applies."""
        _serial, _ctx, fanout = self.shard.serialise(
            self.shard.sessions[origin], payload, 0, 0.0, 0.0
        )
        return [(session.client, b) for session, b in fanout]

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
    # Replicated durability: propose -> quorum certify -> commit/deliver
    # ------------------------------------------------------------------
    def _propose_from(self, origin: ReplicaId, now: float) -> None:
        """Assign a serial and ship the record to the backup quorum.

        The payload stays *queued* on the cluster's client-to-server
        channel — :meth:`_commit_pending` pops it only once the record is
        quorum-certified, so the recorded schedule (and the server's
        state, behaviours and broadcasts) never contains an operation a
        primary crash could still lose.
        """
        group = self.group
        index = self.proposed_from[origin] - self.popped_from[origin]
        payload = self.cluster.queued_payload_from(origin, index)
        record = group.propose(origin, payload.operation)
        self.proposed_from[origin] += 1
        primary = group.primary
        for rid in group.alive_replicas():
            if rid == primary:
                continue
            arrival = self.repl_timer.delivery_time(
                self.latency, primary, rid, now
            )
            self._push(arrival, ("repl", rid, record, group.epoch))

    def _on_repl(self, replica: ReplicaId, record, epoch: int, now: float) -> None:
        """One shipped record arrives at a backup; ack on durable append."""
        group = self.group
        if not group.backup_append(replica, record, epoch):
            return  # stale epoch or dead backup: no ack
        arrival = self.repl_timer.delivery_time(
            self.latency, replica, group.primary, now
        )
        serial = group.logs[replica].last_serial
        self._push(arrival, ("rack", replica, serial, epoch))

    def _on_repl_ack(
        self, replica: ReplicaId, serial: int, epoch: int, now: float
    ) -> None:
        if SERVER_ID in self.crashed:
            # The primary that would process this ack is dead.  The
            # backup's durable append stands regardless — the election
            # reads it straight from the log.
            self.stats.frames_lost_to_crash += 1
            return
        if self.group.acknowledge(replica, serial, epoch):
            self._commit_pending(now)
        self._finish_failover(now)

    def _commit_pending(self, now: float) -> None:
        """Deliver every newly quorum-certified serial to the server.

        Commit order is serial order; each commit pops the origin's
        queued payload (per-origin serial order equals queue order, so
        the front is always the right message), broadcasts the result,
        and releases the origin's gated session acknowledgement.
        """
        group = self.group
        while self.commits_done < group.committed:
            serial = self.commits_done + 1
            record = group.primary_log.record_at(serial)
            if record is None:
                raise SimulationError(
                    f"committed serial {serial} was compacted out of the "
                    "primary log before delivery; the commit-floor clamp "
                    "is broken"
                )
            origin = record["origin"]
            self._deliver_to_server(origin, now)
            assigned = self.cluster.server.oracle.last_serial
            if assigned != serial:
                raise SimulationError(
                    f"commit of serial {serial} was assigned {assigned}; "
                    "commit order diverges from proposal order"
                )
            self.commits_done += 1
            self.popped_from[origin] += 1
            self._send_ack(
                (origin, SERVER_ID), group.committed_ack(origin), now
            )

    def _on_view_change(self, now: float) -> None:
        """The failure detector fired: the next view's primary takes over.

        Deterministic VSR-style takeover: elect the best log among the
        surviving quorum, rebuild the logical server from its *committed*
        prefix (never from the dead process's memory), resume every
        client session from log-derived cursors, and install the adopted
        log on the surviving backups (start-view).  The adopted
        uncommitted suffix re-certifies under the new epoch via the
        install acks; anything only the dead primary held is gone — and
        was never acknowledged, because acks are gated on the floor.
        """
        self.pending_lifecycle -= 1
        self.progress_time = now
        group = self.group
        group.view_change()
        self._restart(group.committed_log(), "failover", now)
        payload = group.start_view_payload()
        for rid in group.alive_replicas():
            if rid == group.primary:
                continue
            arrival = self.repl_timer.delivery_time(
                self.latency, group.primary, rid, now
            )
            self._push(arrival, ("svw", rid, payload, group.epoch))
        self._finish_failover(now)

    def _on_start_view(
        self, replica: ReplicaId, payload, epoch: int, now: float
    ) -> None:
        """A backup installs the new view's adopted log and acks it."""
        group = self.group
        serial = group.install_view(replica, payload, epoch)
        if serial is None:
            return
        arrival = self.repl_timer.delivery_time(
            self.latency, replica, group.primary, now
        )
        self._push(arrival, ("rack", replica, serial, epoch))

    def _finish_failover(self, now: float) -> None:
        """Observe failover latency once the new view is fully certified."""
        if self._failover_from is None or SERVER_ID in self.crashed:
            return
        if self.group.failover_certified():
            latency = now - self._failover_from
            self.stats.failover_latencies.append(latency)
            self._obs.failover_latency.observe(latency)
            self._obs.trace(
                "repl.failover", latency=latency, view=self.group.view
            )
            self._failover_from = None

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
        self.senders[(sender, recipient)].ack(cumulative)
        if sender == SERVER_ID and self.shard is not None:
            # A client's cumulative ack is its consumption cursor: the
            # floor the shard compacts at.
            session = self.shard.sessions[recipient]
            session.delivered = max(session.delivered, cumulative)

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
        from repro.jupiter.messages import ResyncRequest
        from repro.jupiter.persistence import restore_checkpoint
        from repro.jupiter.session import resync_payloads

        self.pending_lifecycle -= 1
        self.progress_time = now
        checkpoint = self.checkpoints[client]
        restored = restore_checkpoint(checkpoint)
        self.cluster.replace_client(
            client, restored, behaviors_keep=checkpoint["behaviors_len"]
        )
        # Control-plane resync: re-ship everything the client had consumed
        # after the checkpoint (serial-ordered; see ResyncRequest).
        request = ResyncRequest(client=client, delivered=checkpoint["delivered"])
        response = resync_payloads(request, self.released[client])
        for payload in response.payloads:
            self.cluster.resync_deliver(client, payload)
        self.stats.resynced_ops += len(response.payloads)
        # Receiver half: the reorder buffer was volatile; unreleased frames
        # are still unacknowledged at the server and will be retransmitted.
        self.receivers[(SERVER_ID, client)].drop_reorder_buffer()
        # Sender half: roll back to the checkpointed sequence state and
        # rearm retransmission for everything unacknowledged.
        sender = self.senders[(client, SERVER_ID)]
        sender.restore(checkpoint["session"])
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
        if self.group is not None:
            group = self.group
            target = spec.replica
            rid = (
                group.roster[target]
                if isinstance(target, int)
                else group.primary
            )
            self._outage_replica[spec.at] = rid
            was_primary = group.crash(rid)
            self.stats.server_crashes += 1
            if was_primary:
                # The serving endpoint is gone until the failure detector
                # fires and the successor takes over: client frames hit
                # the crash check, and the dead incarnation's in-flight
                # frames/acks/timers die with the epoch bump.
                self.crashed.add(SERVER_ID)
                self.epochs[SERVER_ID] += 1
                if self._failover_from is None:
                    self._failover_from = now
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
        self.stats.server_crashes += 1

    def _on_server_restore(self, spec, now: float) -> None:
        self.pending_lifecycle -= 1
        self.progress_time = now
        if self.group is not None:
            # A killed replica rejoins as a *backup* via state transfer
            # from the current primary, whatever role it held before; its
            # durable copy immediately counts toward future quorums.
            rid = self._outage_replica.pop(spec.at)
            self.group.restore(rid)
            self.stats.server_restores += 1
            if SERVER_ID not in self.crashed:
                newly = self.group.acknowledge(
                    rid, self.group.logs[rid].last_serial, self.group.epoch
                )
                if newly:
                    self._commit_pending(now)
                self._finish_failover(now)
            return
        self._restart(self.wal, "WAL recovery", now)
        self.stats.server_restores += 1
        # The recovered state is durable: compact so a later crash replays
        # from this snapshot instead of the whole history.
        self.shard.compact(self.shard.floor(now, 0.0, pins=False))

    def _restart(self, log, what: str, now: float) -> None:
        """(Re)start the logical server from ``log`` as a deployment does:
        ``ShardCore(doc, log)``, then each client's hello at its live
        cursor (:meth:`ShardCore.resync`), which leaves exactly the
        re-shipped suffix unacknowledged.  The sessions become the server
        ends of the lossy channels.  Replicated, the c->s receivers
        resume from the *adopted* log, whose uncommitted suffix is still
        queued, while the server and the s->c numbering resume from the
        committed prefix (never from the dead process's memory).  The
        simulator can do what a deployment cannot: compare the rebuilt
        state against the live one, and the re-shipped broadcasts
        against the volatile send buffers.
        """
        from repro.jupiter.shard import ShardCore

        # The logical serialisation authority keeps its identity across
        # views; the roster member serving it is group.primary.
        log.replica_id = SERVER_ID
        shard = ShardCore("sim", log, now=now)
        recovered = shard.server
        if recovered.space.signature() != self.cluster.server.space.signature():
            raise SimulationError(
                f"{what} rebuilt a different state-space than the served "
                "one; the log lost or reordered history"
            )
        self.cluster.replace_server(recovered)
        self.crashed.discard(SERVER_ID)
        self.shard = shard
        for client in self.clients:
            session = shard.sessions[client]
            _cursor, _state, missed = shard.resync(
                session, len(self.released[client]), None, now
            )
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
            if self.group is not None:
                adopted = self.group.primary_log.origin_counts()
                self.popped_from[client] = session.receiver.cumulative_ack
                self.proposed_from[client] = adopted.get(client, 0)
                session.receiver.fast_forward(self.proposed_from[client])
            self.receivers[(client, SERVER_ID)] = session.receiver
            self.senders[(SERVER_ID, client)] = session.sender
            # Parked out-of-order frames died with the process and the
            # clients' senders retransmit them; frame seq equals serial
            # on every s->c channel, so everything past the client's
            # cursor is retransmitted under the new epoch (bumped at
            # crash time).
            for seq in session.sender.unacked():
                self.stats.retransmissions += 1
                self._obs.session_retransmits.inc()
                self._transmit((SERVER_ID, client), seq, now, attempt=1)

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
        for extra in decision.extra_delays:
            arrival = now + self.latency.delay(sender, recipient, now) + extra
            self._push(arrival, ("frame", sender, recipient, seq, epoch))
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

"""Deterministic fault injection for the simulated network.

The paper's correctness story (convergence, Theorem 6.7; behavioural
equivalence, Theorem 7.1) assumes reliable exactly-once FIFO channels
(Section 4.4).  A production transport has to *earn* that assumption over
a network that drops, duplicates and reorders packets and over clients
that crash and restart.  This module supplies the adversary:

* :class:`ChannelFaults` — per-directed-channel drop / duplicate /
  extra-delay probabilities;
* :class:`CrashSpec` — a crash/restore window for one client;
* :class:`ServerCrashSpec` — a crash/restore window for the *server*,
  the serialisation authority itself; recovery replays the write-ahead
  log of :class:`~repro.jupiter.persistence.ServerWriteAheadLog`;
* :class:`FaultPlan` — a seeded, deterministic composition of the above.
  Every random decision is drawn from one dedicated RNG in event order,
  so the same plan replayed against the same workload produces the same
  run, byte for byte (the property the chaos harness and the ``repro
  chaos`` CLI rely on).

The plan is *advisory*: the event loop in
:class:`~repro.sim.runner.SimulationRunner` asks :meth:`FaultPlan.decide`
once per physical transmission and schedules the surviving copies.  When
no plan is installed the runner never imports this machinery — fault
injection is zero-cost when disabled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.ids import ReplicaId
from repro.errors import SimulationError

#: A directed channel, e.g. ``("c1", "s")`` or ``("s", "c2")``.
Channel = Tuple[ReplicaId, ReplicaId]

#: Sanity ceiling: a channel that drops *every* packet can never be made
#: reliable, so plans refuse drop probabilities at or above this bound.
MAX_DROP = 0.95


@dataclass(frozen=True)
class ChannelFaults:
    """Fault probabilities for one directed channel.

    ``drop``/``duplicate``/``delay`` are per-transmission probabilities;
    a delayed copy gets an extra latency drawn uniformly from
    ``delay_range`` on top of the latency model, which is what reorders
    packets relative to their send order.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_range: Tuple[float, float] = (0.05, 0.5)

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} probability {value} not in [0, 1]")
        if self.drop >= MAX_DROP:
            raise SimulationError(
                f"drop probability {self.drop} >= {MAX_DROP}; such a channel "
                "can never be made reliable"
            )
        low, high = self.delay_range
        if low < 0 or high < low:
            raise SimulationError(f"invalid delay range {self.delay_range}")

    @property
    def quiet(self) -> bool:
        return self.drop == 0.0 and self.duplicate == 0.0 and self.delay == 0.0


@dataclass(frozen=True)
class CrashSpec:
    """One crash/restore window for a client.

    At ``at`` the client loses all volatile state (everything since its
    last checkpoint); at ``restore_at`` it restarts from that checkpoint
    and resyncs missed operations from the server.
    """

    client: ReplicaId
    at: float
    restore_at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError(f"crash time {self.at} is negative")
        if self.restore_at <= self.at:
            raise SimulationError(
                f"restore time {self.restore_at} not after crash at {self.at}"
            )


@dataclass(frozen=True)
class ServerCrashSpec:
    """One crash/restore window for the server (or one of its replicas).

    At ``at`` the server loses all volatile state — its state-space, its
    order oracle, its session endpoints, and every frame or ack it had in
    flight; at ``restore_at`` it recovers from the write-ahead log (latest
    snapshot + replayed suffix), re-enters under a new epoch, and answers
    each client's resync request from the replayed log.

    With a replicated plan (``FaultPlan(replicas=...)``) the window
    targets one member of the replica group instead:

    * ``replica=None`` or ``replica="primary"`` — kill whichever replica
      is the *primary* when ``at`` fires (the interesting case: the
      serialisation authority dies mid-broadcast and a view change must
      elect a successor);
    * ``replica=<int>`` — kill that roster index, primary or not (a
      backup kill exercises quorum commit with a degraded roster).

    At ``restore_at`` the killed replica rejoins as a *backup* via state
    transfer from the current primary, whatever role it held before.
    """

    at: float
    restore_at: float
    #: ``None``/"primary" = the current primary; int = roster index.
    replica: Optional[object] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError(f"server crash time {self.at} is negative")
        if self.restore_at <= self.at:
            raise SimulationError(
                f"server restore time {self.restore_at} not after crash "
                f"at {self.at}"
            )
        if self.replica is not None and self.replica != "primary":
            if not isinstance(self.replica, int) or self.replica < 0:
                raise SimulationError(
                    f"replica target {self.replica!r} is neither 'primary' "
                    "nor a roster index"
                )


@dataclass(frozen=True)
class FaultDecision:
    """Fate of one physical transmission: the extra delays of every copy
    that survives (empty means the transmission was dropped entirely)."""

    extra_delays: Tuple[float, ...]
    dropped: int
    duplicated: int


class FaultPlan:
    """A seeded, deterministic fault schedule for one simulated run.

    A plan is consumed by exactly one run: :meth:`decide` draws from an
    internal RNG in call order, so reusing a plan object across runs
    would entangle their randomness.  Use :meth:`fresh` to obtain an
    identically-seeded copy for another run.
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[ChannelFaults] = None,
        channels: Optional[Dict[Channel, ChannelFaults]] = None,
        crashes: Sequence[CrashSpec] = (),
        server_crashes: Sequence[ServerCrashSpec] = (),
        snapshot_every: int = 3,
        wal: Optional[bool] = None,
        replicas: int = 0,
        failover_delay: float = 0.25,
    ) -> None:
        if snapshot_every < 1:
            raise SimulationError("snapshot_every must be >= 1")
        self.seed = seed
        self.default = default or ChannelFaults()
        self.channels = dict(channels or {})
        self.crashes = sorted(crashes, key=lambda c: (c.at, c.client))
        self.server_crashes = sorted(server_crashes, key=lambda c: c.at)
        self.snapshot_every = snapshot_every
        #: ``None`` = automatic (the WAL runs exactly when the plan
        #: contains server crashes); an explicit bool forces it on (to
        #: measure durability overhead) or off.
        self.wal = wal
        #: 0 = the classic single server; >= 3 replicates the WAL across
        #: a 2f+1 quorum group with view-change failover.
        self.replicas = replicas
        #: detection timeout: a dead primary's successor takes over this
        #: long after the crash (the failure-detector latency).
        self.failover_delay = failover_delay
        if replicas:
            if replicas < 3:
                raise SimulationError(
                    f"a replica group needs at least 3 members (2f+1, "
                    f"f >= 1); got {replicas}"
                )
            if failover_delay <= 0:
                raise SimulationError(
                    f"failover delay {failover_delay} must be positive"
                )
        if wal is False and self.server_crashes:
            raise SimulationError(
                "server crashes require the write-ahead log: recovery "
                "replays it (drop wal=False or the ServerCrashSpecs)"
            )
        self._rng = random.Random(seed)
        self._validate_crashes()

    @property
    def wal_enabled(self) -> bool:
        """Whether the runner should maintain a server write-ahead log."""
        if self.wal is not None:
            return self.wal
        return bool(self.server_crashes) or self.replicas > 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def fresh(self) -> "FaultPlan":
        """An identically-configured plan with a rewound RNG."""
        return FaultPlan(
            seed=self.seed,
            default=self.default,
            channels=dict(self.channels),
            crashes=list(self.crashes),
            server_crashes=list(self.server_crashes),
            snapshot_every=self.snapshot_every,
            wal=self.wal,
            replicas=self.replicas,
            failover_delay=self.failover_delay,
        )

    def without_crashes(self) -> "FaultPlan":
        """The same network faults, but no replica ever crashes.

        Crash recovery restores from :mod:`repro.jupiter.persistence`
        snapshots, which exist for the CSS protocol only; protocols
        without snapshot support run the lossy network with this variant.
        """
        return FaultPlan(
            seed=self.seed,
            default=self.default,
            channels=dict(self.channels),
            crashes=(),
            server_crashes=(),
            snapshot_every=self.snapshot_every,
            wal=self.wal,
            replicas=self.replicas,
            failover_delay=self.failover_delay,
        )

    @classmethod
    def sample(
        cls,
        seed: int,
        clients: Sequence[ReplicaId],
        duration_hint: float = 10.0,
        max_drop: float = 0.3,
        crashes: bool = True,
        server_crash: bool = False,
    ) -> "FaultPlan":
        """Draw a random plan: lossy channels plus >= 1 crash/restore.

        Deterministic per ``seed``; the chaos property harness samples one
        plan per seed and the ``repro chaos`` CLI sweeps a seed range.
        With ``server_crash`` the plan additionally crashes the server
        once; client restores that would land inside the server's outage
        window are pushed past it (a client cannot resync from a dead
        server), keeping every sampled plan valid.
        """
        rng = random.Random(seed)
        default = ChannelFaults(
            drop=rng.uniform(0.0, max_drop),
            duplicate=rng.uniform(0.0, 0.2),
            delay=rng.uniform(0.0, 0.3),
            delay_range=(0.02, rng.uniform(0.1, 1.0)),
        )
        crash_list: List[CrashSpec] = []
        if crashes and clients:
            for client in rng.sample(
                list(clients), k=rng.randint(1, min(2, len(clients)))
            ):
                at = rng.uniform(0.2, max(0.4, 0.8 * duration_hint))
                crash_list.append(
                    CrashSpec(
                        client=client,
                        at=at,
                        restore_at=at + rng.uniform(0.5, 3.0),
                    )
                )
        server_list: List[ServerCrashSpec] = []
        if server_crash:
            at = rng.uniform(0.3, max(0.6, 0.7 * duration_hint))
            window = ServerCrashSpec(
                at=at, restore_at=at + rng.uniform(0.4, 2.0)
            )
            server_list.append(window)
            crash_list = [
                replace(
                    crash,
                    restore_at=window.restore_at + rng.uniform(0.1, 1.0),
                )
                if window.at <= crash.restore_at <= window.restore_at
                else crash
                for crash in crash_list
            ]
        return cls(
            seed=seed,
            default=default,
            crashes=crash_list,
            server_crashes=server_list,
            snapshot_every=rng.randint(1, 4),
        )

    @classmethod
    def sample_failover(
        cls,
        seed: int,
        clients: Sequence[ReplicaId],
        duration_hint: float = 10.0,
        max_drop: float = 0.3,
        replicas: int = 3,
        kills: int = 1,
    ) -> "FaultPlan":
        """Draw a random replicated plan with ``kills`` primary kills.

        Deterministic per ``seed``.  Each kill window targets whichever
        replica is the primary when the window opens, so a sequence of
        kills walks the view number forward — successive view changes
        with the log adopted across them.  Windows are laid out
        sequentially (one replica down at a time: the 2f+1 group keeps
        its quorum throughout) and each is long enough for the failover
        detection delay to elapse before the victim rejoins.
        """
        if kills < 1:
            raise SimulationError("sample_failover needs kills >= 1")
        rng = random.Random(seed)
        default = ChannelFaults(
            drop=rng.uniform(0.0, max_drop),
            duplicate=rng.uniform(0.0, 0.2),
            delay=rng.uniform(0.0, 0.3),
            delay_range=(0.02, rng.uniform(0.1, 1.0)),
        )
        failover_delay = rng.uniform(0.1, 0.4)
        span = max(duration_hint, 1.0)
        server_list: List[ServerCrashSpec] = []
        cursor = rng.uniform(0.2, 0.4 * span / kills)
        for _ in range(kills):
            outage = failover_delay + rng.uniform(0.3, 1.5)
            server_list.append(
                ServerCrashSpec(
                    at=cursor, restore_at=cursor + outage, replica="primary"
                )
            )
            cursor += outage + rng.uniform(0.2, max(0.4, span / kills))
        return cls(
            seed=seed,
            default=default,
            server_crashes=server_list,
            snapshot_every=rng.randint(1, 4),
            replicas=replicas,
            failover_delay=failover_delay,
        )

    def shrunk(self) -> Iterator["FaultPlan"]:
        """Progressively simpler variants of this plan, for failure triage.

        When a chaos case fails, re-running these (same seed, fewer fault
        dimensions) pins down which ingredient breaks: first without
        duplication/delay, then without drops, then (when present)
        without the server crash, then without any crashes.
        """
        yield FaultPlan(
            seed=self.seed,
            default=replace(self.default, duplicate=0.0, delay=0.0),
            crashes=list(self.crashes),
            server_crashes=list(self.server_crashes),
            snapshot_every=self.snapshot_every,
        )
        yield FaultPlan(
            seed=self.seed,
            default=replace(self.default, drop=0.0),
            crashes=list(self.crashes),
            server_crashes=list(self.server_crashes),
            snapshot_every=self.snapshot_every,
        )
        if self.server_crashes:
            yield FaultPlan(
                seed=self.seed,
                default=self.default,
                crashes=list(self.crashes),
                snapshot_every=self.snapshot_every,
            )
        yield self.without_crashes()
        yield FaultPlan(seed=self.seed)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def faults_for(self, channel: Channel) -> ChannelFaults:
        return self.channels.get(channel, self.default)

    def decide(self, channel: Channel, now: float) -> FaultDecision:
        """Fate of one transmission on ``channel`` at time ``now``."""
        faults = self.faults_for(channel)
        if faults.quiet:
            return FaultDecision(extra_delays=(0.0,), dropped=0, duplicated=0)
        rng = self._rng
        copies = 1
        if rng.random() < faults.duplicate:
            copies += 1
        surviving: List[float] = []
        for _ in range(copies):
            if rng.random() < faults.drop:
                continue
            extra = 0.0
            if rng.random() < faults.delay:
                extra = rng.uniform(*faults.delay_range)
            surviving.append(extra)
        return FaultDecision(
            extra_delays=tuple(surviving),
            dropped=copies - len(surviving),
            duplicated=copies - 1,
        )

    # ------------------------------------------------------------------
    # Crash bookkeeping
    # ------------------------------------------------------------------
    def crashed_clients(self) -> List[ReplicaId]:
        return sorted({crash.client for crash in self.crashes})

    def _validate_crashes(self) -> None:
        by_client: Dict[ReplicaId, List[CrashSpec]] = {}
        for crash in self.crashes:
            by_client.setdefault(crash.client, []).append(crash)
        for client, windows in by_client.items():
            for earlier, later in zip(windows, windows[1:]):
                if later.at < earlier.restore_at:
                    raise SimulationError(
                        f"overlapping crash windows for {client}: "
                        f"{earlier} and {later}"
                    )
        for earlier, later in zip(self.server_crashes, self.server_crashes[1:]):
            if later.at < earlier.restore_at:
                raise SimulationError(
                    f"overlapping server crash windows: "
                    f"{earlier} and {later}"
                )
        for window in self.server_crashes:
            if window.replica is None:
                continue
            if not self.replicas:
                raise SimulationError(
                    f"server crash targets replica {window.replica!r} but "
                    "the plan has no replica group (set replicas=2f+1)"
                )
            if (
                isinstance(window.replica, int)
                and window.replica >= self.replicas
            ):
                raise SimulationError(
                    f"server crash targets replica {window.replica} but the "
                    f"roster has only {self.replicas} members"
                )
        for window in self.server_crashes:
            for crash in self.crashes:
                if window.at <= crash.restore_at <= window.restore_at:
                    raise SimulationError(
                        f"client {crash.client} restores at "
                        f"{crash.restore_at} while the server is down "
                        f"({window}); recovery needs the server to answer "
                        "its resync request"
                    )


@dataclass
class FaultStats:
    """Counters one fault-injected run accumulates.

    ``frames_*`` count physical transmissions on the lossy network;
    ``duplicates_suppressed`` and ``out_of_order_buffered`` are the
    session layer's receiver-side work; ``retransmissions`` counts
    timeout-driven resends; the crash counters describe the recovery
    path (``resynced_ops`` = operations re-delivered from the server's
    serial index after a restore).  The ``server_*`` and ``wal_*``
    counters describe the server durability subsystem:
    ``frames_lost_in_flight`` are frames/acks the crashing server had on
    the wire (they die with its epoch), ``server_resynced_ops`` are
    broadcasts rebuilt from the replayed write-ahead log, and the
    ``wal_*`` counters are the log's append/compaction work.
    """

    frames_sent: int = 0
    frames_dropped: int = 0
    frames_duplicated: int = 0
    frames_lost_to_crash: int = 0
    frames_lost_in_flight: int = 0
    acks_sent: int = 0
    acks_dropped: int = 0
    retransmissions: int = 0
    duplicates_suppressed: int = 0
    out_of_order_buffered: int = 0
    crashes: int = 0
    restores: int = 0
    checkpoints: int = 0
    resynced_ops: int = 0
    deferred_generations: int = 0
    server_crashes: int = 0
    server_restores: int = 0
    server_resynced_ops: int = 0
    wal_appends: int = 0
    view_changes: int = 0
    repl_stale_rejected: int = 0
    #: simulated seconds from each primary crash to the commit floor
    #: regaining the adopted log (the view fully certified again)
    failover_latencies: List[float] = dataclass_field(default_factory=list)

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))

    def summary(self) -> str:
        return (
            f"frames sent={self.frames_sent} dropped={self.frames_dropped} "
            f"duplicated={self.frames_duplicated} "
            f"lost-to-crash={self.frames_lost_to_crash}; "
            f"retransmissions={self.retransmissions} "
            f"dup-suppressed={self.duplicates_suppressed} "
            f"reorder-buffered={self.out_of_order_buffered}; "
            f"crashes={self.crashes} resynced-ops={self.resynced_ops}; "
            f"server-crashes={self.server_crashes} "
            f"server-resynced={self.server_resynced_ops} "
            f"wal-appends={self.wal_appends} "
            f"view-changes={self.view_changes}"
        )


@dataclass(frozen=True)
class NetChaosPlan:
    """A seeded, declarative fault plan for the *real* TCP transport.

    :class:`FaultPlan` adversaries the simulated network; this is its
    socket-level twin, consumed by
    :class:`repro.net.chaosproxy.ChaosProxy`, which sits between real
    clients and a real :class:`~repro.net.server.NetServer` and
    perturbs the byte stream itself:

    * ``latency``/``jitter`` — every forwarded chunk waits ``latency``
      plus a uniform draw from ``[0, jitter]`` seconds (jitter reorders
      nothing — TCP is FIFO — but it perturbs timing and coalescing);
    * ``bandwidth`` — bytes/second cap per connection per direction
      (0 = uncapped), throttled over 4KiB slices;
    * ``reset_after`` — one mid-run reset: ``reset_after`` seconds
      after the proxy starts, every live connection is aborted *once*
      (clients reconnect and resync losslessly from the WAL);
    * ``partition``/``partition_at``/``partition_for`` — a one-way
      partition: during the window, bytes flowing ``"c2s"`` (client to
      server) or ``"s2c"`` are read and discarded, the TCP mirror of a
      one-way channel outage;
    * ``stall_at``/``stall_for`` — slow-loris: each connection stops
      forwarding *both* directions ``stall_at`` seconds after it is
      accepted, for ``stall_for`` seconds — the connection stays open
      but nothing moves, which is exactly the shape the server's idle
      deadline and write deadline must defend against.

    All windows except the stall run on the proxy clock (seconds since
    :meth:`ChaosProxy.start`); the stall is per-connection.  Every
    random draw comes from an RNG seeded with ``seed``, so a plan
    replays identically — the property the chaos-net suite relies on.
    """

    seed: int = 0
    latency: float = 0.0
    jitter: float = 0.0
    bandwidth: int = 0
    reset_after: Optional[float] = None
    partition: Optional[str] = None
    partition_at: float = 0.0
    partition_for: float = 0.0
    stall_at: Optional[float] = None
    stall_for: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise SimulationError(
                f"latency {self.latency}/jitter {self.jitter} negative"
            )
        if self.bandwidth < 0:
            raise SimulationError(f"bandwidth {self.bandwidth} negative")
        if self.reset_after is not None and self.reset_after <= 0:
            raise SimulationError(
                f"reset_after {self.reset_after} must be positive"
            )
        if self.partition is not None:
            if self.partition not in ("c2s", "s2c"):
                raise SimulationError(
                    f"partition {self.partition!r} must be 'c2s' or 's2c'"
                )
            if self.partition_for <= 0:
                raise SimulationError(
                    f"partition_for {self.partition_for} must be positive"
                )
            if self.partition_at < 0:
                raise SimulationError(
                    f"partition_at {self.partition_at} negative"
                )
        if self.stall_at is not None:
            if self.stall_at < 0:
                raise SimulationError(f"stall_at {self.stall_at} negative")
            if self.stall_for <= 0:
                raise SimulationError(
                    f"stall_for {self.stall_for} must be positive"
                )

    @property
    def quiet(self) -> bool:
        return (
            self.latency == 0.0
            and self.jitter == 0.0
            and self.bandwidth == 0
            and self.reset_after is None
            and self.partition is None
            and self.stall_at is None
        )

    @classmethod
    def sample(cls, seed: int, duration_hint: float = 5.0) -> "NetChaosPlan":
        """Draw a random plan, deterministic per ``seed``.

        Delays stay in the tens of milliseconds so a 50-plan property
        sweep finishes in CI time; windows land inside
        ``duration_hint`` so every fault actually fires mid-run.
        """
        rng = random.Random(seed)
        plan: Dict[str, object] = {
            "seed": seed,
            "latency": rng.uniform(0.0, 0.02),
            "jitter": rng.uniform(0.0, 0.02),
        }
        if rng.random() < 0.3:
            plan["bandwidth"] = rng.randrange(64 * 1024, 1024 * 1024)
        if rng.random() < 0.4:
            plan["reset_after"] = rng.uniform(0.2, 0.7 * duration_hint)
        if rng.random() < 0.3:
            plan["partition"] = rng.choice(["c2s", "s2c"])
            plan["partition_at"] = rng.uniform(0.1, 0.5 * duration_hint)
            plan["partition_for"] = rng.uniform(0.1, 0.5)
        if rng.random() < 0.3:
            plan["stall_at"] = rng.uniform(0.1, 0.5 * duration_hint)
            plan["stall_for"] = rng.uniform(0.1, 0.5)
        return cls(**plan)  # type: ignore[arg-type]

    def to_obj(self) -> Dict[str, object]:
        """JSON-able form (the ``repro chaosproxy`` announce line)."""
        return {
            "seed": self.seed,
            "latency": self.latency,
            "jitter": self.jitter,
            "bandwidth": self.bandwidth,
            "reset_after": self.reset_after,
            "partition": self.partition,
            "partition_at": self.partition_at,
            "partition_for": self.partition_for,
            "stall_at": self.stall_at,
            "stall_for": self.stall_for,
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, object]) -> "NetChaosPlan":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in dict(obj).items() if k in known})

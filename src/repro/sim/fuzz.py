"""Randomised end-to-end fuzzing of protocols against the specifications.

One fuzz case = a random protocol configuration (client count, workload
shape, network) driven to quiescence and checked against every
specification the protocol is supposed to satisfy.  The CLI exposes this
as ``python -m repro fuzz``; the test-suite uses it for smoke coverage
and the checkers' sensitivity is exercised by including the broken
protocol (whose divergences must be *caught*).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.faults import FaultPlan
from repro.sim.network import FixedLatency, UniformLatency
from repro.sim.runner import SimulationRunner, replay
from repro.sim.trace import check_all_specs
from repro.sim.workload import WorkloadConfig

#: What each protocol guarantees; the fuzzer fails a case when a
#: guaranteed property is violated, and *also* when the broken protocol
#: diverges without any checker noticing (checker sensitivity).
GUARANTEES: Dict[str, Dict[str, bool]] = {
    "css": {"convergence": True, "weak": True, "strong": False},
    "css-gc": {"convergence": True, "weak": True, "strong": False},
    "cscw": {"convergence": True, "weak": True, "strong": False},
    "classic": {"convergence": True, "weak": True, "strong": False},
    "vector": {"convergence": True, "weak": True, "strong": False},
    "rga": {"convergence": True, "weak": True, "strong": True},
    "logoot": {"convergence": True, "weak": True, "strong": True},
    "woot": {"convergence": True, "weak": True, "strong": True},
    "treedoc": {"convergence": True, "weak": True, "strong": True},
    "broken": {"convergence": False, "weak": False, "strong": False},
}


@dataclass
class FuzzCase:
    """One randomly drawn configuration."""

    protocol: str
    workload: WorkloadConfig
    latency_seed: int

    def describe(self) -> str:
        w = self.workload
        return (
            f"{self.protocol} clients={w.clients} ops={w.operations} "
            f"ins={w.insert_ratio} pos={w.positions} seed={w.seed} "
            f"lat={self.latency_seed}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz session."""

    cases: int = 0
    failures: List[str] = field(default_factory=list)
    broken_divergences_caught: int = 0
    strong_violations_seen: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases} cases, {len(self.failures)} failure(s), "
            f"{self.broken_divergences_caught} broken-protocol divergences "
            f"caught, {self.strong_violations_seen} Jupiter strong-list "
            "violations observed (Theorem 8.1 in the wild)"
        ]
        lines.extend(f"  FAIL {failure}" for failure in self.failures)
        return "\n".join(lines)


def draw_case(rng: random.Random, protocols: Optional[List[str]] = None) -> FuzzCase:
    pool = protocols or list(GUARANTEES)
    return FuzzCase(
        protocol=rng.choice(pool),
        workload=WorkloadConfig(
            clients=rng.randint(2, 5),
            operations=rng.randint(5, 40),
            insert_ratio=rng.choice([0.5, 0.7, 0.9, 1.0]),
            positions=rng.choice(["uniform", "append", "hotspot"]),
            seed=rng.randrange(1 << 30),
        ),
        latency_seed=rng.randrange(1 << 30),
    )


def run_case(case: FuzzCase, report: FuzzReport) -> None:
    """Execute one case and fold the verdicts into ``report``."""
    report.cases += 1
    latency = (
        FixedLatency(0.002)
        if case.latency_seed % 3 == 0
        else UniformLatency(0.01, 0.6, seed=case.latency_seed)
    )
    try:
        result = SimulationRunner(
            case.protocol, case.workload, latency
        ).run()
        spec_report = check_all_specs(result.execution)
    except Exception as error:  # noqa: BLE001 - fuzzing boundary
        report.failures.append(f"{case.describe()}: crashed: {error!r}")
        return

    guarantees = GUARANTEES[case.protocol]
    if guarantees["convergence"] and not result.converged:
        report.failures.append(f"{case.describe()}: documents diverged")
    if guarantees["convergence"] and not spec_report.convergence.ok:
        report.failures.append(f"{case.describe()}: Acp violated")
    if guarantees["weak"] and not spec_report.weak_list.ok:
        report.failures.append(f"{case.describe()}: Aweak violated")
    if guarantees["strong"] and not spec_report.strong_list.ok:
        report.failures.append(f"{case.describe()}: Astrong violated")
    if guarantees["convergence"] and not guarantees["strong"]:
        if not spec_report.strong_list.ok:
            report.strong_violations_seen += 1

    if case.protocol == "broken" and not result.converged:
        # Divergence happened: at least one checker must have noticed.
        if spec_report.convergence.ok and spec_report.weak_list.ok:
            report.failures.append(
                f"{case.describe()}: broken protocol diverged but no "
                "checker flagged it"
            )
        else:
            report.broken_divergences_caught += 1


def fuzz(
    cases: int = 25,
    seed: int = 0,
    protocols: Optional[List[str]] = None,
) -> FuzzReport:
    """Run ``cases`` random configurations; deterministic per ``seed``."""
    rng = random.Random(seed)
    report = FuzzReport()
    for _ in range(cases):
        run_case(draw_case(rng, protocols), report)
    return report


# ----------------------------------------------------------------------
# Chaos sweeps: sampled fault plans against one protocol
# ----------------------------------------------------------------------
@dataclass
class ChaosCase:
    """Outcome of one fault-injected run."""

    seed: int
    drop: float
    duplicate: float
    delay: float
    crashes: int
    converged: bool
    #: ``None`` when the fault-free replay cross-check was skipped.
    replay_ok: Optional[bool]
    retransmissions: int
    frames_dropped: int
    duplicates_suppressed: int
    resynced_ops: int
    duration: float
    server_crashes: int = 0
    wal_appends: int = 0
    view_changes: int = 0
    failover_latencies: List[float] = field(default_factory=list)

    def row(self) -> str:
        return (
            f"{self.seed:>6} {self.drop:>5.2f} {self.duplicate:>4.2f} "
            f"{self.delay:>5.2f} {self.crashes:>7} {self.server_crashes:>6} "
            f"{str(self.converged):<10} "
            f"{'-' if self.replay_ok is None else str(self.replay_ok):<7} "
            f"{self.retransmissions:>7} {self.frames_dropped:>8} "
            f"{self.duplicates_suppressed:>7} {self.resynced_ops:>7} "
            f"{self.wal_appends:>7} {self.view_changes:>5} {self.duration:>9.2f}"
        )


@dataclass
class ChaosReport:
    """Aggregate outcome of a chaos sweep."""

    protocol: str
    cases: List[ChaosCase] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    HEADER = (
        f"{'seed':>6} {'drop':>5} {'dup':>4} {'delay':>5} {'crashes':>7} "
        f"{'scrash':>6} {'converged':<10} {'replay':<7} {'retrans':>7} "
        f"{'dropped':>8} {'dedup':>7} {'resync':>7} {'wal':>7} "
        f"{'views':>5} {'duration':>9}"
    )

    def failover_latencies(self) -> List[float]:
        """Every observed failover latency across the sweep's cases."""
        return [
            latency
            for case in self.cases
            for latency in case.failover_latencies
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    def table(self) -> str:
        return "\n".join([self.HEADER, *(case.row() for case in self.cases)])

    def summary(self) -> str:
        total_retrans = sum(c.retransmissions for c in self.cases)
        total_resync = sum(c.resynced_ops for c in self.cases)
        lines = [
            f"chaos[{self.protocol}]: {len(self.cases)} fault plans, "
            f"{len(self.failures)} failure(s), {total_retrans} "
            f"retransmissions, {total_resync} resynced ops"
        ]
        lines.extend(f"  FAIL {failure}" for failure in self.failures)
        return "\n".join(lines)


def chaos_sweep(
    protocol: str = "css",
    plans: int = 10,
    seed: int = 0,
    workload: Optional[WorkloadConfig] = None,
    max_drop: float = 0.3,
    check_replay: bool = True,
    server_crash: bool = False,
    replicas: int = 0,
    primary_kills: int = 1,
) -> ChaosReport:
    """Run ``plans`` sampled fault plans against one protocol.

    Each plan draws lossy-channel probabilities plus (for CSS, the
    protocol with snapshot-based recovery) at least one crash/restore;
    with ``server_crash`` every plan additionally crashes and recovers
    the *server* from its write-ahead log.  Every run must reach
    quiescence and converge; with ``check_replay`` the recorded
    exactly-once schedule is additionally replayed on a fault-free
    cluster whose per-replica behaviours must match — for a crashed
    client that is precisely the "recovery behaves like an uncrashed
    replica" guarantee — and, under CSS, whose server state-space the
    run's server must hold.  After a server crash the sweep also checks
    that the recovered serialisation order is the dense sequence ``1..n``.

    With ``replicas`` (a 2f+1 roster size) every plan instead replicates
    the write-ahead log and kills the *primary* ``primary_kills`` times
    mid-run (``FaultPlan.sample_failover``); a view change must elect a
    successor each time.  On top of the convergence/replay checks, the
    sweep asserts that **no acknowledged operation is ever lost**: every
    generated operation holds exactly one serial in the surviving log —
    a bijection between generations and the dense serial order.
    """
    if server_crash and protocol != "css":
        raise SimulationError(
            "--server-crash requires the css protocol: server recovery "
            "replays the write-ahead log through a CssServer"
        )
    if replicas and protocol != "css":
        raise SimulationError(
            "--kill-primary requires the css protocol: failover recovery "
            "replays the replicated write-ahead log through a CssServer"
        )
    base = workload or WorkloadConfig(clients=3, operations=18)
    report = ChaosReport(protocol=protocol)
    for index in range(plans):
        case_seed = seed + index
        config = WorkloadConfig(
            clients=base.clients,
            operations=base.operations,
            insert_ratio=base.insert_ratio,
            positions=base.positions,
            rate_per_client=base.rate_per_client,
            seed=case_seed,
        )
        duration_hint = config.operations / (
            config.clients * config.rate_per_client
        )
        if replicas:
            plan = FaultPlan.sample_failover(
                case_seed,
                config.client_names(),
                duration_hint=max(duration_hint, 1.0),
                max_drop=max_drop,
                replicas=replicas,
                kills=primary_kills,
            )
        else:
            plan = FaultPlan.sample(
                case_seed,
                config.client_names(),
                duration_hint=max(duration_hint, 1.0),
                max_drop=max_drop,
                crashes=protocol == "css",
                server_crash=server_crash,
            )
        latency = UniformLatency(0.01, 0.3, seed=case_seed)
        label = (
            f"plan seed={case_seed} drop={plan.default.drop:.2f} "
            f"crashes={len(plan.crashes)} "
            f"server-crashes={len(plan.server_crashes)}"
        )
        try:
            result = SimulationRunner(
                protocol, config, latency, faults=plan
            ).run()
        except Exception as error:  # noqa: BLE001 - chaos boundary
            report.failures.append(f"{label}: crashed: {error!r}")
            continue
        replay_ok: Optional[bool] = None
        if check_replay:
            twin = replay(protocol, result.schedule, config.client_names())
            replay_ok = (
                twin.behaviors == result.cluster.behaviors
                and twin.documents() == result.documents()
                # Proposition 6.6, also for a server rebuilt from its log
                and (
                    protocol != "css"
                    or result.cluster.server.space.signature()
                    == twin.server.space.signature()
                )
            )
        stats = result.fault_stats
        report.cases.append(
            ChaosCase(
                seed=case_seed,
                drop=plan.default.drop,
                duplicate=plan.default.duplicate,
                delay=plan.default.delay,
                crashes=len(plan.crashes),
                converged=result.converged,
                replay_ok=replay_ok,
                retransmissions=stats.retransmissions,
                frames_dropped=stats.frames_dropped,
                duplicates_suppressed=stats.duplicates_suppressed,
                resynced_ops=stats.resynced_ops,
                duration=result.duration,
                server_crashes=stats.server_crashes,
                wal_appends=stats.wal_appends,
                view_changes=stats.view_changes,
                failover_latencies=list(stats.failover_latencies),
            )
        )
        if not result.converged:
            report.failures.append(f"{label}: documents diverged")
        if replay_ok is False:
            report.failures.append(
                f"{label}: behaviours differ from fault-free replay"
            )
        if plan.server_crashes:
            oracle = result.cluster.server.oracle
            serials = [serial for _opid, serial in oracle.serial_items()]
            if serials != list(range(1, len(serials) + 1)):
                report.failures.append(
                    f"{label}: recovered serials not dense 1..n: {serials}"
                )
        if replicas:
            if stats.view_changes < len(plan.server_crashes):
                report.failures.append(
                    f"{label}: {len(plan.server_crashes)} primary kills "
                    f"but only {stats.view_changes} view changes"
                )
            oracle = result.cluster.server.oracle
            serialised = {opid for opid, _serial in oracle.serial_items()}
            generated = set(result.generated_at)
            lost = generated - serialised
            if lost:
                report.failures.append(
                    f"{label}: acknowledged operations lost to failover: "
                    f"{sorted(lost)}"
                )
            phantom = serialised - generated
            if phantom:
                report.failures.append(
                    f"{label}: serialised operations never generated: "
                    f"{sorted(phantom)}"
                )
    return report

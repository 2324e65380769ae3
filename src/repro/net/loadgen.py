"""Live load generation: N client OS processes against one TCP server.

This is the first place the paper's convergence property (Theorem 6.7)
is checked across *process* boundaries instead of inside one
interpreter.  The coordinator:

1. spawns ``repro serve`` as a subprocess on an ephemeral port (parsing
   its one-line ``REPRO-SERVE {...}`` announcement);
2. spawns one ``repro connect`` subprocess per client, each driving a
   seeded stream of edits against its live local document;
3. by default severs one client's connection mid-run (no ``bye``) — the
   worker reconnects and resyncs the broadcasts it missed from the
   server's write-ahead log, and retransmits its own unacknowledged
   frames;
4. waits for every worker to report convergence, asks the server for its
   document signature over the admin plane, shuts the server down, and
   compares: the run passes iff **every replica's final document
   signature is byte-identical**.

Every subprocess is started inside one owning context
(:class:`_Deployment`) and step 4's comparison is :func:`verdict`; the
fleet coordinator (:mod:`repro.net.fleet.loadgen`) runs inside the same
context and the same verdict, per document.

Every worker's operation stream is a pure function of ``seed`` and its
index; the interleaving is real wall-clock scheduling, which is exactly
the point — convergence must hold under schedules nobody picked.

With ``replicas = 2f+1 > 1`` the coordinator instead spawns a quorum
roster of ``repro serve --replica-of`` processes sharing one ordered
roster, hands every worker the same roster, and (with ``kill_primary``)
SIGKILLs the view-0 primary mid-run.  The surviving replicas run the
view change, the workers fail over via the roster walk, and the final
signature check is performed against whichever replica reports
``role == "primary"`` afterwards — acknowledged operations must survive
the crash byte-for-byte.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import socket
import string
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

# Re-exported as ``percentile``: the one nearest-rank rule, with the
# reports' reading of an empty sample (0.0, where the rule itself raises).
from repro.common.stats import percentile_or_zero as percentile
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import encode_envelope, parse_roster
from repro.net.transport import call
from repro.obs import get_obs, merge_snapshots, snapshot_value
from repro.sim.faults import NetChaosPlan

_ALPHABET = string.ascii_lowercase


# ----------------------------------------------------------------------
# Admin plane helpers
# ----------------------------------------------------------------------
def admin(
    host: str, port: int, command: str, timeout: float = 5.0, **fields: Any
) -> Dict[str, Any]:
    """Synchronous admin round-trip (signature / stats / shutdown).

    Extra keyword ``fields`` ride in the admin envelope — a multi-doc
    worker's signature/stats commands accept ``doc=...``.
    """
    request = encode_envelope("admin", cmd=command, **fields)
    try:
        reply = asyncio.run(call(host, port, request, timeout))
    except asyncio.TimeoutError as exc:
        raise ConnectionError(
            f"admin {command!r}: no answer within {timeout:.1f}s"
        ) from exc
    if reply is None or reply.get("type") != "admin_reply":
        raise ConnectionError(f"admin {command!r}: bad reply {reply!r}")
    return reply


# ----------------------------------------------------------------------
# One worker process
# ----------------------------------------------------------------------
async def _connect_with_retry(
    client: NetClient, connect_timeout: float
) -> int:
    """Connect-phase retry: tolerate a server that is still starting.

    Workers are spawned concurrently with (and sometimes before) the
    server processes, so the very first dial can land on a port nobody
    listens on yet.  Retry connection-refused with bounded exponential
    backoff until ``connect_timeout`` elapses; the last error is
    re-raised once the deadline passes.  Returns the number of failed
    attempts absorbed.
    """
    deadline = time.monotonic() + connect_timeout
    attempt = 0
    while True:
        try:
            await client.connect()
            return attempt
        except (ConnectionError, OSError):
            attempt += 1
            pause = min(0.1 * (2 ** min(attempt, 4)), 1.5)
            if time.monotonic() + pause >= deadline:
                raise
            await asyncio.sleep(pause)


class _WorkerTally:
    """What every worker loop keeps besides its client: connect-retry
    and resync accounting, and the report built from them."""

    def __init__(self, client: NetClient, connect_timeout: float) -> None:
        self.client = client
        self.connect_timeout = connect_timeout
        self.connect_retries = 0
        self.resync_on_reconnect = 0
        self.started = time.perf_counter()

    async def connect(self, reconnect: bool = False) -> None:
        """(Re)connect with retry; a reconnect's resync burst is counted."""
        before = self.client.resync_frames
        self.connect_retries += await _connect_with_retry(
            self.client, self.connect_timeout
        )
        if reconnect:
            self.resync_on_reconnect += self.client.resync_frames - before

    async def finish(
        self, ops: int, expect_total: int, timeout: float, **extra: Any
    ) -> Dict[str, Any]:
        """Wait for convergence, build the report, close the client."""
        client = self.client
        converged = await client.wait_converged(expect_total, timeout=timeout)
        report = {
            "client": client.client_id,
            "doc": client.doc,
            "ops": ops,
            "converged": converged,
            "signature": client.signature(),
            "document_length": len(client.css.document),
            "delivered": client.delivered,
            "connects": client.connects,
            "reconnects": max(0, client.connects - 1),
            "resync_frames": client.resync_frames,
            "resync_on_reconnect": self.resync_on_reconnect,
            "connect_retries": self.connect_retries,
            "view": client.view,
            "epoch": client.epoch,
            "redirects": client.redirects,
            "duration": time.perf_counter() - self.started,
            "rtt_ms": [round(r * 1000.0, 4) for r in client.rtts],
            **extra,
            "metrics": get_obs().snapshot(),
        }
        await client.close()
        return report


async def run_worker(
    host: str,
    port: int,
    client_id: str,
    ops: int,
    expect_total: int,
    seed: int,
    insert_ratio: float = 0.7,
    reconnect_after: Optional[int] = None,
    offline_pause: float = 0.25,
    op_interval: float = 0.02,
    timeout: float = 60.0,
    roster: Optional[str] = None,
    max_reconnect_attempts: Optional[int] = None,
    connect_timeout: float = 20.0,
    doc: str = "",
    max_connect_attempts: int = 8,
    duration: Optional[float] = None,
) -> Dict[str, Any]:
    """Drive one client: ``ops`` seeded edits, then wait for convergence.

    With ``reconnect_after = m`` the worker abruptly drops its TCP
    connection right after its ``m``-th edit, stays offline for
    ``offline_pause`` seconds (letting the other workers race ahead),
    then reconnects — exercising the hello/welcome resync from the
    server's write-ahead log and the retransmission of its own
    unacknowledged frames.

    ``roster`` (a ``host:port,...`` string) enables failover: on
    connection loss the client walks the replica roster and follows
    redirects until it finds the current primary.

    ``duration`` adds a deadline-based stop: the edit loop ends once
    that many seconds have elapsed, whatever the op count says — the
    open-loop mode scenario phases (and standalone soak runs) need.
    With ``duration`` set, ``ops`` becomes an optional cap (``0`` =
    unlimited); the report's ``ops`` field is always the count actually
    generated.
    """
    rng = random.Random(seed)
    client = NetClient(
        client_id,
        host,
        port,
        reconnect_seed=seed,
        max_connect_attempts=max_connect_attempts,
        roster=parse_roster(roster) if roster else None,
        max_reconnect_attempts=max_reconnect_attempts,
        doc=doc,
    )
    tally = _WorkerTally(client, connect_timeout)
    deadline = None if duration is None else tally.started + duration
    await tally.connect()
    index = 0
    while True:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if index >= ops and (deadline is None or ops > 0):
            break
        length = len(client.css.document)
        inserting = length == 0 or rng.random() < insert_ratio
        if inserting:
            spec = OpSpec("ins", rng.randint(0, length), rng.choice(_ALPHABET))
        else:
            spec = OpSpec("del", rng.randint(0, length - 1))
        await client.generate(spec)
        if reconnect_after is not None and index + 1 == reconnect_after:
            await client.drop()
            await asyncio.sleep(offline_pause)
            await tally.connect(reconnect=True)
        await asyncio.sleep(op_interval)
        index += 1
    return await tally.finish(index, expect_total, timeout)


async def run_scenario_worker(
    host: str,
    port: int,
    client_id: str,
    events: "Sequence[Any]",
    expect_total: int,
    *,
    initial_length: int = 0,
    started_at: Optional[float] = None,
    time_scale: float = 1.0,
    timeout: float = 60.0,
    connect_timeout: float = 20.0,
    reconnect_seed: int = 0,
    doc: str = "",
) -> Dict[str, Any]:
    """Drive one client through a compiled scenario program.

    ``events`` is one client's slice of a
    :class:`repro.scenarios.compile.ScenarioProgram` — timed ``join`` /
    ``op`` / ``offline`` / ``online`` events.  Each fires at
    ``started_at + event.at * time_scale`` on the wall clock (pass one
    shared ``started_at`` so all workers share a timeline); ``op``
    intents are resolved against the live local document exactly as the
    sim binding resolves them, ``offline`` severs the TCP connection
    abruptly (edits keep buffering locally), and ``online``/``join``
    (re)connect — resyncing missed broadcasts from the server's WAL and
    retransmitting the client's own unacknowledged frames.

    Returns the same report as :func:`run_worker`, plus a
    ``lane`` list of executed events (in scenario time) for the
    timeline renderer.
    """
    # Imported lazily: repro.scenarios imports this module's sibling
    # wire binding, so a top-level import would be circular.
    from repro.scenarios.compile import resolve_intent

    client = NetClient(client_id, host, port, reconnect_seed=reconnect_seed, doc=doc)
    tally = _WorkerTally(client, connect_timeout)
    cursor = initial_length
    lane: List[Dict[str, Any]] = []
    generated = 0
    t0 = started_at if started_at is not None else time.monotonic()
    for event in events:
        delay = (t0 + event.at * time_scale) - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        if event.kind in ("join", "online"):
            await tally.connect(reconnect=event.kind == "online")
        elif event.kind == "offline":
            await client.drop()
        elif event.kind == "op":
            spec, cursor = resolve_intent(
                event.intent, cursor, len(client.css.document)
            )
            await client.generate(spec)
            generated += 1
        else:
            raise ValueError(f"unknown scenario event kind {event.kind!r}")
        lane.append(
            {"at": event.at, "kind": event.kind, "phase": event.phase}
        )
    return await tally.finish(generated, expect_total, timeout, lane=lane)


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    """Environment for subprocesses: make ``repro`` importable."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _free_ports(count: int, host: str) -> List[int]:
    """Reserve ``count`` distinct currently-free TCP ports on ``host``.

    The sockets are held open until all ports are collected so the OS
    cannot hand the same port out twice, then released.  (A race with
    other processes grabbing the port before the replica binds it is
    possible but vanishingly rare in practice; the replica would fail
    loudly at startup.)
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _flags(**values: Any) -> List[str]:
    """``name=value`` pairs as ``--name value`` argv.

    Underscores become dashes, values are stringified, and a ``None``
    value drops its flag — the spelling every ``repro`` verb parses.
    """
    argv: List[str] = []
    for name, value in values.items():
        if value is not None:
            argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def _spawn(command: Sequence[str]) -> subprocess.Popen:
    """Start ``python -m repro <command>`` with both pipes captured."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *command],
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _spawn_announced(
    marker: str, *command: str, **flags: Any
) -> Tuple[subprocess.Popen, int]:
    """Spawn a listener verb with ``--announce``; returns it and its port.

    ``command`` is the verb plus any bare switches, ``flags`` its valued
    options.  The port is read from the one-line ``marker {json}`` banner
    the verb prints once it is listening (how an ephemeral ``--port 0``
    is found).
    """
    process = _spawn([*command, "--announce", *_flags(**flags)])
    assert process.stdout is not None
    while True:
        line = process.stdout.readline()
        if not line:
            process.wait()
            stderr = process.stderr.read() if process.stderr else ""
            raise RuntimeError(f"{marker} process failed to start:\n{stderr}")
        if line.startswith(marker + " "):
            return process, int(json.loads(line[len(marker) + 1:])["port"])


def _kill_mid_run(
    victim: subprocess.Popen,
    kill_after: Optional[float],
    busiest_share: int,
    op_interval: float,
) -> float:
    """SIGKILL ``victim`` ``kill_after`` seconds from now; returns the delay.

    The default lands roughly mid-run: interpreter startup plus half the
    edit stream of the busiest worker.
    """
    delay = kill_after
    if delay is None:
        delay = max(2.0, busiest_share * op_interval * 0.5 + 1.0)
    time.sleep(delay)
    victim.kill()
    victim.wait()
    return delay


def _collect_reports(
    workers: Sequence[Tuple[str, subprocess.Popen]], timeout: float
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Wait for every worker; returns ``(reports, failures)``.

    A worker's report is the last line of its stdout.  A non-converged
    worker still prints one; it is kept for the post-mortem, and the
    failure entry is what keeps it out of the convergence verdict (which
    requires a clean exit from every worker).
    """
    reports: List[Dict[str, Any]] = []
    failures: List[str] = []
    for name, worker in workers:
        try:
            stdout, stderr = worker.communicate(timeout=timeout + 30.0)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.communicate()
            failures.append(f"{name}: timed out")
            continue
        lines = [l for l in stdout.splitlines() if l.strip()]
        if worker.returncode != 0 or not lines:
            failures.append(
                f"{name}: exit {worker.returncode}\n{stderr.strip()}"
            )
            if lines:
                try:
                    reports.append(json.loads(lines[-1]))
                except json.JSONDecodeError:
                    pass
            continue
        reports.append(json.loads(lines[-1]))
    return reports, failures


class _Deployment:
    """Every subprocess (and temp dir) one coordinator run started.

    Entered before the first spawn, so whatever fails afterwards — a
    replica that will not start, a worker that times out — everything
    already running is stopped on the way out: listeners are asked to
    ``shutdown`` over their admin plane and killed if they will not
    exit, every other process is killed, an owned temp dir is removed.
    """

    def __init__(self, host: str, tag: str, quiet: bool) -> None:
        self.host = host
        self._tag = tag
        self._quiet = quiet
        #: ``(process, port)`` of every listener with an admin plane
        self.listeners: List[Tuple[subprocess.Popen, int]] = []
        #: ``(name, process)`` of every ``repro connect`` worker
        self.workers: List[Tuple[str, subprocess.Popen]] = []
        self._proxies: List[subprocess.Popen] = []
        self._temp_dir: Optional[str] = None

    def log(self, text: str) -> None:
        if not self._quiet:
            print(f"[{self._tag}] {text}", flush=True)

    def listener(
        self,
        marker: str,
        *command: str,
        admin_plane: bool = True,
        **flags: Any,
    ) -> Tuple[subprocess.Popen, int]:
        """Spawn an announcing listener verb (see :func:`_spawn_announced`);
        a chaos proxy has no ``admin_plane`` of its own to shut it down."""
        process, port = _spawn_announced(marker, *command, **flags)
        if admin_plane:
            self.listeners.append((process, port))
        else:
            self._proxies.append(process)
        return process, port

    def worker(self, name: str, **flags: Any) -> None:
        """Spawn the ``repro connect`` worker of client ``name``."""
        command = ["connect", "--json", *_flags(client=name, **flags)]
        self.workers.append((name, _spawn(command)))

    def temp_dir(self, prefix: str) -> str:
        self._temp_dir = tempfile.mkdtemp(prefix=prefix)
        return self._temp_dir

    def __enter__(self) -> "_Deployment":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for process, port in self.listeners:
            if process.poll() is not None:
                continue
            try:
                admin(self.host, port, "shutdown")
            except (ConnectionError, OSError):
                pass
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
        for process in self._proxies + [w for _name, w in self.workers]:
            if process.poll() is None:
                process.kill()
        if self._temp_dir is not None:
            shutil.rmtree(self._temp_dir, ignore_errors=True)


def verdict(
    reports: Sequence[Dict[str, Any]],
    expected: int,
    server_signatures: Mapping[str, str],
) -> Dict[str, Any]:
    """Theorem 6.7 across process boundaries, for one document.

    ``reports`` are the worker reports of the document's clients,
    ``server_signatures`` the server-side replicas' by name.  The
    document converged iff all ``expected`` clients report convergence;
    its replicas agree iff every signature, clients' and servers', is
    byte-identical.  Beside the verdict ride what every harness reports
    with it: round-trip percentiles (no samples reads 0.0) and the
    exact merge of the clients' metric snapshots (fixed bucket
    boundaries make the histograms sum element-wise).
    """
    signatures = {r["client"]: r["signature"] for r in reports}
    signatures.update(server_signatures)
    rtts = [sample for r in reports for sample in r.get("rtt_ms", ())]
    return {
        "converged": len(reports) == expected
        and all(r["converged"] for r in reports),
        "signatures_identical": len(set(signatures.values())) == 1,
        "signatures": signatures,
        "rtt_ms_p50": percentile(rtts, 0.50),
        "rtt_ms_p99": percentile(rtts, 0.99),
        "client_metrics": merge_snapshots(
            [
                r["metrics"]
                for r in reports
                if r.get("metrics", {}).get("metrics")
            ]
        ),
    }


def split_ops(total: int, clients: int) -> List[int]:
    """Distribute ``total`` operations over ``clients`` round-robin."""
    base, extra = divmod(total, clients)
    return [base + (1 if index < extra else 0) for index in range(clients)]


def primary_deadline_for(failover_delay: float, replicas: int) -> float:
    """How long :func:`_find_primary` should keep polling.

    A full election can take every surviving replica's staggered turn
    (``failover_delay`` per view it waits out) plus log install and
    replay, so the budget scales with the roster's detection delay
    instead of hardcoding a wall-clock guess that flaps on slow CI:
    a generous ten staggered-election rounds, floored at 15 seconds.
    """
    return max(15.0, 10.0 * failover_delay * max(replicas, 1))


def _find_primary(
    server_processes: List[Tuple[subprocess.Popen, int]],
    host: str,
    deadline: float = 15.0,
    admin_timeout: float = 5.0,
) -> Tuple[int, Dict[str, Any]]:
    """Locate the live replica currently acting as primary.

    Polls the admin plane of every replica whose process is still alive
    until one reports ``role == "primary"`` (a standalone server has no
    replication block and is trivially primary).  Raises after
    ``deadline`` seconds — at that point the roster has no primary and
    the run has genuinely failed.  Callers with a replicated roster
    derive ``deadline`` from the roster's failover delay via
    :func:`primary_deadline_for`.
    """
    end = time.monotonic() + deadline
    while True:
        for process, port in server_processes:
            if process.poll() is not None:
                continue
            try:
                stats = admin(host, port, "stats", timeout=admin_timeout)
            except (ConnectionError, OSError):
                continue
            replication = stats.get("replication") or {}
            role = stats.get("role") or replication.get("role")
            if role in (None, "primary"):
                return port, stats
        if time.monotonic() >= end:
            raise RuntimeError("no live primary replica found")
        time.sleep(0.2)


def run_loadgen(
    clients: int = 3,
    ops: int = 500,
    seed: int = 7,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = 240.0,
    insert_ratio: float = 0.7,
    op_interval: float = 0.02,
    reconnect_clients: Optional[int] = None,
    initial_text: str = "",
    quiet: bool = False,
    replicas: int = 1,
    kill_primary: bool = False,
    failover_delay: float = 0.5,
    kill_after: Optional[float] = None,
    chaos: Optional[NetChaosPlan] = None,
    primary_deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the full multi-process deployment and report convergence.

    ``reconnect_clients`` workers (default: 1 when there is more than
    one client) each drop and re-establish their connection mid-run.
    The returned report's ``ok`` is True iff every worker converged,
    every replica signature (workers + server) is byte-identical, and
    every requested reconnect actually happened and resynced.

    ``replicas = 2f+1 > 1`` spawns a quorum roster instead of a single
    server (ephemeral ports; ``port`` is ignored).  ``kill_primary``
    SIGKILLs the view-0 primary ``kill_after`` seconds into the run
    (default: roughly mid-run), after which the report additionally
    requires ``view_changes >= 1`` and the signature comparison is made
    against the *new* primary — the replica that adopted the
    quorum-certified log.

    ``chaos`` interposes a seeded :mod:`repro.net.chaosproxy` subprocess
    between the workers and the server: every client byte stream rides
    through the plan's latency/jitter/reset faults while the admin plane
    (and the final signature check) talks to the server directly.

    ``primary_deadline`` bounds the post-run primary search; by default
    it is derived from ``failover_delay`` (see
    :func:`primary_deadline_for`) so slow-CI replicated runs don't flap.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    if ops < clients:
        raise ValueError("need at least one operation per client")
    if replicas > 1 and (replicas < 3 or replicas % 2 == 0):
        raise ValueError("replica roster must be an odd count >= 3 (2f+1)")
    if kill_primary and replicas < 3:
        raise ValueError("--kill-primary needs a replica roster (>= 3)")
    if chaos is not None and replicas > 1:
        raise ValueError(
            "chaos proxying covers the single-server deployment; the "
            "replicated roster is chaos-tested in-process "
            "(tests/net/test_chaos_net.py)"
        )
    if primary_deadline is None:
        primary_deadline = primary_deadline_for(failover_delay, replicas)
    if reconnect_clients is None:
        reconnect_clients = 1 if clients > 1 else 0
    reconnect_clients = min(reconnect_clients, clients)

    # One server, or a 2f+1 roster on reserved ports sharing one ordered
    # roster string.
    ports = [port]
    roster_text = ""
    if replicas > 1:
        ports = _free_ports(replicas, host)
        roster_text = ",".join(f"{host}:{p}" for p in ports)
    shares = split_ops(ops, clients)
    with _Deployment(host, "loadgen", quiet) as owned:
        log = owned.log
        for index, replica_port in enumerate(ports):
            process, bound = owned.listener(
                "REPRO-SERVE",
                "serve",
                "--quiet",
                host=host,
                port=replica_port,
                initial=initial_text or None,
                replica_of=roster_text or None,
                failover_delay=failover_delay if roster_text else None,
            )
            log(f"server s{index} pid {process.pid} on {host}:{bound}")
        bound_port = worker_port = owned.listeners[0][1]
        if chaos is not None:
            proxy_process, worker_port = owned.listener(
                "REPRO-CHAOSPROXY",
                "chaosproxy",
                admin_plane=False,
                target=f"{host}:{bound_port}",
                host=host,
                port=0,
                plan_json=json.dumps(chaos.to_obj()),
            )
            log(
                f"chaos proxy pid {proxy_process.pid} on "
                f"{host}:{worker_port} -> {host}:{bound_port} "
                f"(seed {chaos.seed})"
            )
        started = time.perf_counter()
        for index in range(clients):
            owned.worker(
                f"c{index + 1}",
                host=host,
                port=worker_port,
                ops=shares[index],
                expect_total=ops,
                seed=seed * 1000 + index,
                insert_ratio=insert_ratio,
                op_interval=op_interval,
                timeout=timeout,
                roster=roster_text or None,
                reconnect_after=(
                    max(1, shares[index] // 2)
                    if index < reconnect_clients
                    else None
                ),
            )
        log(f"spawned {clients} worker processes ({shares} ops each)")
        if kill_primary:
            victim, victim_port = owned.listeners[0]
            delay = _kill_mid_run(victim, kill_after, shares[0], op_interval)
            log(
                f"killed view-0 primary pid {victim.pid} "
                f"({host}:{victim_port}) after {delay:.1f}s"
            )
        reports, failures = _collect_reports(owned.workers, timeout)
        wall = time.perf_counter() - started
        primary_port, server_stats = _find_primary(
            owned.listeners, host, deadline=primary_deadline
        )
        server_view = admin(host, primary_port, "signature")
        server_metrics = admin(host, primary_port, "metrics")

    replication = server_stats.get("replication") or {}
    view_changes = int(replication.get("view_changes", 0))
    primary = replication.get("replica", "s")
    result = verdict(reports, clients, {primary: server_view["signature"]})
    converged = result["converged"] and not failures
    reconnects = sum(r["reconnects"] for r in reports)
    resynced = sum(r["resync_on_reconnect"] for r in reports)
    ok = (
        converged
        and result["signatures_identical"]
        and reconnects >= reconnect_clients
        # A kill-primary run pauses commits during the outage, so the
        # deliberately-dropped worker may genuinely have nothing to
        # resync when it reconnects; only demand resync evidence when
        # the roster stayed healthy.
        and (reconnect_clients == 0 or kill_primary or resynced > 0)
        and (not kill_primary or view_changes >= 1)
    )
    return {
        **result,
        "ok": ok,
        "clients": clients,
        "ops": ops,
        "seed": seed,
        "replicas": replicas,
        "roster": roster_text,
        "chaos": chaos.to_obj() if chaos is not None else None,
        "killed_primary": kill_primary,
        "view_changes": view_changes,
        "primary": primary,
        "view": int(replication.get("view", 0)),
        "converged": converged,
        "document_length": len(server_view.get("document") or ""),
        "serial": server_view["serial"],
        "reconnects": reconnects,
        "resync_on_reconnect": resynced,
        "failures": failures,
        "wall_seconds": wall,
        "ops_per_sec": ops / wall if wall > 0 else 0.0,
        "server_stats": {
            "frames_received": server_stats["frames_received"],
            "resync_frames_sent": server_stats["resync_frames_sent"],
            "duplicates_suppressed": server_stats["duplicates_suppressed"],
            "overload": server_stats.get("overload", {}),
            "wal": server_stats["wal"],
        },
        "client_rtt_observations": snapshot_value(
            result["client_metrics"], "repro_net_rtt_seconds"
        ),
        "server_metrics_enabled": bool(server_metrics.get("enabled")),
        "server_exposition": server_metrics.get("exposition", ""),
        "workers": reports,
    }

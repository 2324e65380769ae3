"""Fleet load generation: router + K workers x D documents x C clients.

The fleet analogue of :mod:`repro.net.loadgen`, and the first place the
paper's convergence property is checked *per document across a sharded
fleet*: every client of every document must end byte-identical to its
document's other clients **and** to the owning worker's recovered state
— while documents placed on different workers serialise concurrently
with zero coupling.

The coordinator:

1. spawns ``repro fleet route`` on an ephemeral port;
2. spawns K ``repro fleet worker`` processes sharing one ``wal_dir``
   (placement moves, storage stays), and waits until the router's admin
   plane reports all K leases live;
3. spawns D x C ``repro connect --doc`` clients, all pointed at the
   *router* — each one's first hello is answered with a redirect to its
   document's owner, exercising the client's existing redirect/roster
   machinery;
4. optionally SIGKILLs one worker mid-run: its lease lapses, the router
   re-places its documents onto the survivors (rendezvous argmax), the
   orphaned clients walk their roster back through the router, and the
   new owners recover the shards from the shared per-document WAL files
   — **zero acknowledged operations may be lost**;
5. verifies per-document signature equality (clients + owning worker),
   merges every process's metrics snapshot exactly, and reports
   per-shard and fleet-aggregate throughput plus placement skew.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.net.fleet.placement import placement_skew
from repro.net.loadgen import (
    _collect_reports,
    _connect_command,
    _kill_mid_run,
    _shut_down,
    _spawn,
    _spawn_announced,
    admin,
    percentile,
    split_ops,
)
from repro.obs import merge_snapshots, snapshot_total


def _await_router(
    host: str,
    router_port: int,
    counter: str,
    at_least: int,
    deadline: float = 15.0,
) -> Dict[str, Any]:
    """Poll the router's stats until ``counter`` reaches ``at_least``."""
    end = time.monotonic() + deadline
    while True:
        try:
            stats = admin(host, router_port, "stats")
            if int(stats.get(counter, 0)) >= at_least:
                return stats
        except (ConnectionError, OSError):
            pass
        if time.monotonic() >= end:
            raise RuntimeError(
                f"router's {counter} never reached {at_least} "
                f"within {deadline:.1f}s"
            )
        time.sleep(0.1)


# ----------------------------------------------------------------------
# The fleet coordinator
# ----------------------------------------------------------------------
def run_fleet_loadgen(
    workers: int = 2,
    docs: int = 8,
    clients_per_doc: int = 3,
    ops_per_doc: int = 60,
    seed: int = 7,
    host: str = "127.0.0.1",
    op_interval: float = 0.02,
    timeout: float = 240.0,
    insert_ratio: float = 0.7,
    kill_worker: bool = False,
    kill_after: Optional[float] = None,
    lease_seconds: float = 1.2,
    heartbeat_interval: float = 0.3,
    wal_dir: Optional[str] = None,
    quiet: bool = False,
) -> Dict[str, Any]:
    """Run the full fleet and report per-document convergence.

    ``ok`` is True iff every client of every document converged, each
    document's signatures (its clients plus the owning worker's admin
    signature) are byte-identical, and — with ``kill_worker`` — at
    least one lease expired, every re-placed document ended on a
    surviving worker, and no acknowledged operation was lost (which is
    what per-client convergence at ``expect_total`` certifies: every
    acked edit is in every replica's final state).
    """
    if workers < 1 or docs < 1 or clients_per_doc < 1:
        raise ValueError("need at least one worker, document, and client")
    if ops_per_doc < clients_per_doc:
        raise ValueError("need at least one operation per client")
    if kill_worker and workers < 2:
        raise ValueError("kill_worker needs at least two workers")

    def log(text: str) -> None:
        if not quiet:
            print(f"[fleet] {text}", flush=True)

    doc_names = [f"doc-{index}" for index in range(docs)]
    shares = split_ops(ops_per_doc, clients_per_doc)
    owned_dir = wal_dir is None
    if owned_dir:
        wal_dir = tempfile.mkdtemp(prefix="repro-fleet-")
    router_process: Optional[subprocess.Popen] = None
    worker_processes: List[Tuple[str, subprocess.Popen, int]] = []
    client_processes: List[Tuple[str, subprocess.Popen]] = []
    started = time.perf_counter()
    try:
        router_process, router_port = _spawn_announced(
            "REPRO-FLEET-ROUTER",
            "fleet",
            "route",
            "--quiet",
            host=host,
            port=0,
            lease=lease_seconds,
            heartbeat=heartbeat_interval,
        )
        log(f"router pid {router_process.pid} on {host}:{router_port}")
        for index in range(workers):
            worker_id = f"w{index}"
            process, port = _spawn_announced(
                "REPRO-FLEET-WORKER",
                "fleet",
                "worker",
                "--quiet",
                worker=worker_id,
                router=f"{host}:{router_port}",
                host=host,
                port=0,
                wal_dir=wal_dir,
                heartbeat_seed=seed * 100 + index,
            )
            worker_processes.append((worker_id, process, port))
            log(f"worker {worker_id} pid {process.pid} on {host}:{port}")
        _await_router(host, router_port, "live_workers", workers)
        placement_before = {
            doc: admin(host, router_port, "route", doc=doc)["worker"]
            for doc in doc_names
        }
        log(f"initial placement: {placement_before}")
        for doc in doc_names:
            for cindex in range(clients_per_doc):
                name = f"{doc}-c{cindex}"
                command = _connect_command(
                    host,
                    router_port,
                    name,
                    shares[cindex],
                    ops_per_doc,
                    seed * 10000 + doc_names.index(doc) * 100 + cindex,
                    insert_ratio,
                    op_interval,
                    timeout,
                    doc=doc,
                    # A client orphaned by a worker SIGKILL ping-pongs
                    # router -> dead-worker until the lease expires; give
                    # it budget to ride that out instead of giving up.
                    max_connect_attempts=64,
                )
                client_processes.append((name, _spawn(command)))
        log(
            f"spawned {len(client_processes)} clients "
            f"({clients_per_doc} per document, {shares} ops each)"
        )
        killed_worker = ""
        if kill_worker:
            killed_worker, victim, victim_port = worker_processes[0]
            delay = _kill_mid_run(victim, kill_after, shares[0], op_interval)
            log(
                f"SIGKILLed worker {killed_worker} pid {victim.pid} "
                f"({host}:{victim_port}) after {delay:.1f}s"
            )
        reports, failures = _collect_reports(client_processes, timeout)
        wall = time.perf_counter() - started
        # Clients that finished before the kill leave nobody to notice
        # it: wait for the lease to lapse, or the placement read below
        # would still name the dead worker.
        router_stats = _await_router(
            host, router_port, "expirations", 1 if kill_worker else 0
        )
        router_metrics = admin(host, router_port, "metrics")
        placement_after = {
            doc: admin(host, router_port, "route", doc=doc)["worker"]
            for doc in doc_names
        }
        worker_addr = {
            worker_id: port
            for worker_id, process, port in worker_processes
            if process.poll() is None
        }
        # Per-document server-side signature from each doc's owner.
        server_signatures: Dict[str, str] = {}
        worker_metric_snapshots: List[Dict[str, Any]] = []
        per_doc_stats: Dict[str, Dict[str, Any]] = {}
        for doc in doc_names:
            owner = placement_after[doc]
            port = worker_addr.get(owner)
            if port is None:
                failures.append(f"{doc}: owner {owner} is not alive")
                continue
            view = admin(host, port, "signature", doc=doc)
            if "error" in view:
                failures.append(f"{doc}: {view['error']}")
                continue
            server_signatures[doc] = view["signature"]
            per_doc_stats[doc] = {
                "owner": owner,
                "serial": view["serial"],
                "document_length": len(view.get("document") or ""),
            }
        for worker_id, port in worker_addr.items():
            metrics = admin(host, port, "metrics")
            if metrics.get("snapshot", {}).get("metrics"):
                worker_metric_snapshots.append(metrics["snapshot"])
    finally:
        listeners = [
            (process, port) for _id, process, port in worker_processes
        ]
        if router_process is not None:
            listeners.append((router_process, router_port))
        _shut_down(host, listeners)
        for _name, process in client_processes:
            if process.poll() is None:
                process.kill()
        if owned_dir:
            shutil.rmtree(wal_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    by_doc: Dict[str, List[Dict[str, Any]]] = {doc: [] for doc in doc_names}
    for report in reports:
        by_doc.setdefault(report.get("doc", ""), []).append(report)
    doc_results: Dict[str, Dict[str, Any]] = {}
    all_identical = True
    all_converged = not failures
    for doc in doc_names:
        doc_reports = by_doc.get(doc, [])
        signatures = {r["client"]: r["signature"] for r in doc_reports}
        if doc in server_signatures:
            signatures[f"worker:{placement_after[doc]}"] = server_signatures[
                doc
            ]
        identical = len(set(signatures.values())) == 1 and bool(signatures)
        converged = len(doc_reports) == clients_per_doc and all(
            r["converged"] for r in doc_reports
        )
        all_identical = all_identical and identical
        all_converged = all_converged and converged
        doc_results[doc] = {
            "converged": converged,
            "signatures_identical": identical,
            "signatures": signatures,
            "ops": ops_per_doc,
            "ops_per_sec": ops_per_doc / wall if wall > 0 else 0.0,
            **per_doc_stats.get(doc, {}),
        }
    total_ops = ops_per_doc * docs
    client_metrics = merge_snapshots(
        [r["metrics"] for r in reports if r.get("metrics", {}).get("metrics")]
    )
    fleet_metrics = merge_snapshots(
        [client_metrics] + worker_metric_snapshots
        + (
            [router_metrics["snapshot"]]
            if router_metrics.get("snapshot", {}).get("metrics")
            else []
        )
    )
    redirect_counts = [r["redirects"] for r in reports]
    rtts = [sample for r in reports for sample in r.get("rtt_ms", [])]
    live_workers = sorted(worker_addr)
    skew = placement_skew(placement_after, live_workers)
    expirations = int(router_stats.get("expirations", 0))
    replaced_docs = sorted(
        doc
        for doc in doc_names
        if kill_worker and placement_before[doc] != placement_after[doc]
    )
    replacement_ok = (not kill_worker) or (
        expirations >= 1
        and all(
            placement_after[doc] in live_workers
            for doc in doc_names
        )
        and all(
            placement_before[doc] == placement_after[doc]
            for doc in doc_names
            if placement_before[doc] in live_workers
        )
    )
    ok = (
        all_converged
        and all_identical
        and len(server_signatures) == docs
        and replacement_ok
    )
    return {
        "ok": ok,
        "workers": workers,
        "docs": docs,
        "clients_per_doc": clients_per_doc,
        "ops_per_doc": ops_per_doc,
        "total_ops": total_ops,
        "seed": seed,
        "killed_worker": killed_worker if kill_worker else "",
        "expirations": expirations,
        "replaced_docs": replaced_docs,
        "replacement_ok": replacement_ok,
        "converged": all_converged,
        "signatures_identical": all_identical,
        "failures": failures,
        "wall_seconds": wall,
        "ops_per_sec": total_ops / wall if wall > 0 else 0.0,
        "placement_before": placement_before,
        "placement_after": placement_after,
        "placement_skew": skew,
        "live_workers": live_workers,
        "redirects_total": sum(redirect_counts),
        "redirects_p99": percentile(
            [float(count) for count in redirect_counts], 0.99
        ),
        "rtt_ms_p50": percentile(rtts, 0.50),
        "rtt_ms_p99": percentile(rtts, 0.99),
        "router_stats": {
            "registrations": router_stats.get("registrations", 0),
            "expirations": expirations,
            "redirects": router_stats.get("redirects", 0),
            "replacements": router_stats.get("replacements", 0),
            "live_workers": router_stats.get("live_workers", 0),
        },
        "docs_detail": doc_results,
        "fleet_metrics": fleet_metrics,
        "fleet_frames_received": snapshot_total(
            fleet_metrics, "repro_net_frames_received_total"
        ),
        "fleet_frames_sent": snapshot_total(
            fleet_metrics, "repro_net_frames_sent_total"
        ),
        "clients": reports,
    }

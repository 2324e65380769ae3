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

import time
from typing import Any, Dict, List, Optional

from repro.net.fleet.placement import placement_skew
from repro.net.loadgen import (
    _collect_reports,
    _Deployment,
    _kill_mid_run,
    admin,
    percentile,
    split_ops,
    verdict,
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

    doc_names = [f"doc-{index}" for index in range(docs)]
    shares = split_ops(ops_per_doc, clients_per_doc)
    with _Deployment(host, "fleet", quiet) as owned:
        log = owned.log
        wal_dir = wal_dir or owned.temp_dir("repro-fleet-")
        started = time.perf_counter()
        router_process, router_port = owned.listener(
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
        worker_listeners = {}
        for index in range(workers):
            worker_id = f"w{index}"
            worker_listeners[worker_id] = process, port = owned.listener(
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
            log(f"worker {worker_id} pid {process.pid} on {host}:{port}")
        _await_router(host, router_port, "live_workers", workers)
        placement_before = {
            doc: admin(host, router_port, "route", doc=doc)["worker"]
            for doc in doc_names
        }
        log(f"initial placement: {placement_before}")
        for dindex, doc in enumerate(doc_names):
            for cindex in range(clients_per_doc):
                owned.worker(
                    f"{doc}-c{cindex}",
                    host=host,
                    port=router_port,
                    ops=shares[cindex],
                    expect_total=ops_per_doc,
                    seed=seed * 10000 + dindex * 100 + cindex,
                    insert_ratio=insert_ratio,
                    op_interval=op_interval,
                    timeout=timeout,
                    doc=doc,
                    # A client orphaned by a worker SIGKILL ping-pongs
                    # router -> dead-worker until the lease expires; give
                    # it budget to ride that out instead of giving up.
                    max_connect_attempts=64,
                )
        log(
            f"spawned {len(owned.workers)} clients "
            f"({clients_per_doc} per document, {shares} ops each)"
        )
        killed_worker = ""
        if kill_worker:
            killed_worker = "w0"
            victim, victim_port = worker_listeners[killed_worker]
            delay = _kill_mid_run(victim, kill_after, shares[0], op_interval)
            log(
                f"SIGKILLed worker {killed_worker} pid {victim.pid} "
                f"({host}:{victim_port}) after {delay:.1f}s"
            )
        reports, failures = _collect_reports(owned.workers, timeout)
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
            for worker_id, (process, port) in worker_listeners.items()
            if process.poll() is None
        }
        # Per-document server-side signature from each doc's owner.
        server_signatures: Dict[str, Dict[str, str]] = {}
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
            server_signatures[doc] = {f"worker:{owner}": view["signature"]}
            per_doc_stats[doc] = {
                "owner": owner,
                "serial": view["serial"],
                "document_length": len(view.get("document") or ""),
            }
        for worker_id, port in worker_addr.items():
            metrics = admin(host, port, "metrics")
            if metrics.get("snapshot", {}).get("metrics"):
                worker_metric_snapshots.append(metrics["snapshot"])

    # ------------------------------------------------------------------
    # Verdict: per document, then fleet-wide
    # ------------------------------------------------------------------
    doc_results: Dict[str, Dict[str, Any]] = {}
    for doc in doc_names:
        detail = verdict(
            [r for r in reports if r.get("doc", "") == doc],
            clients_per_doc,
            server_signatures.get(doc, {}),
        )
        del detail["client_metrics"]  # merged fleet-wide below
        doc_results[doc] = {
            **detail,
            "ops": ops_per_doc,
            "ops_per_sec": ops_per_doc / wall if wall > 0 else 0.0,
            **per_doc_stats.get(doc, {}),
        }
    all_converged = not failures and all(
        detail["converged"] for detail in doc_results.values()
    )
    all_identical = all(
        detail["signatures_identical"] for detail in doc_results.values()
    )
    # Percentiles do not compose, so the fleet-wide round trips (and
    # the client metrics beside them) are read off every report at once.
    fleet = verdict(reports, docs * clients_per_doc, {})
    total_ops = ops_per_doc * docs
    fleet_metrics = merge_snapshots(
        [fleet["client_metrics"]] + worker_metric_snapshots
        + (
            [router_metrics["snapshot"]]
            if router_metrics.get("snapshot", {}).get("metrics")
            else []
        )
    )
    redirect_counts = [r["redirects"] for r in reports]
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
        "rtt_ms_p50": fleet["rtt_ms_p50"],
        "rtt_ms_p99": fleet["rtt_ms_p99"],
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

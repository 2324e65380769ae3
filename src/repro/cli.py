"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [name ...]`` — regenerate the paper's figures (1, 2, 6, 7, 8)
  and print their artifacts;
* ``simulate`` — run one protocol under a random workload and report
  convergence, specification verdicts, metrics and propagation latency;
* ``compare`` — run every correct protocol on an identical workload and
  print the comparison table;
* ``equivalence`` — record a CSS schedule, replay it on CSCW and classic
  Jupiter, and check Theorem 7.1 plus Propositions 7.2/7.4;
* ``verify`` — exhaustive CP1 plus every schedule of a small script,
  per protocol;
* ``report`` — run the experiment suite and emit a Markdown report;
* ``record`` / ``replay`` — persist a schedule as JSON and replay it
  against any protocol;
* ``fuzz`` — random configurations checked against each protocol's
  guarantees;
* ``chaos`` — sampled fault plans (drops, duplicates, reordering delays,
  client crash/restore, and with ``--server-crash`` a server crash
  recovered from its write-ahead log) against the reliable-session
  layer; every run must converge and match a fault-free replay;
* ``dcss`` — run the decentralised CSS extension on a peer-to-peer mesh;
* ``serve`` — host a CSS server behind a real TCP listener
  (:mod:`repro.net`), write-ahead logged, resyncing reconnecting
  clients from durable state;
* ``connect`` — run one CSS client process against a ``serve`` instance,
  optionally driving a seeded edit stream and reporting convergence;
* ``loadgen`` — spawn a server plus N client OS processes, drive live
  load with a mid-run disconnect/reconnect, and verify cross-process
  convergence by comparing final document signatures;
* ``metrics`` — scrape a running ``serve`` instance's metrics over the
  admin plane and print the Prometheus text exposition;
* ``chaosproxy`` — run a seeded TCP chaos proxy in front of a ``serve``
  instance, injecting socket-level latency/jitter, bandwidth caps,
  mid-stream resets, one-way partitions and slow-loris stalls from a
  declarative :class:`~repro.sim.faults.NetChaosPlan`;
* ``fleet route`` / ``fleet worker`` / ``fleet loadgen`` — the sharded
  multi-document tier (:mod:`repro.net.fleet`): a router that redirects
  each ``hello {doc}`` to the document's rendezvous-placed worker, the
  lease-keeping multi-document worker it points at, and a coordinator
  that drives router + K workers x D documents x C clients and checks
  per-document convergence (optionally SIGKILLing a worker mid-run).

Unknown subcommands and bad arguments exit with status 2 — the same
code ``figures`` returns for an unknown figure — and ``main`` always
*returns* the exit code (a ``SystemExit``, argparse's or a handler's, is
absorbed), so programmatic callers never need a try/except.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro._version import __version__

LATENCY_PRESETS = ("lan", "wan", "flaky")

#: Every protocol ``make_cluster`` builds except the ``css-ref`` test
#: oracle.  A literal, held equal to the registry by a test: building the
#: parser must import no protocol module (``repro connect`` start-up is
#: inside every loadgen drill).
PROTOCOLS = (
    "css", "css-gc", "cscw", "classic", "vector", "broken",
    "rga", "logoot", "woot", "treedoc",
)


def _latency(preset: str, seed: int):
    from repro.sim import FixedLatency, UniformLatency

    if preset == "lan":
        return FixedLatency(0.002)
    if preset == "wan":
        return UniformLatency(0.05, 0.25, seed=seed)
    return UniformLatency(0.05, 2.0, seed=seed)


def _named(args, *names: str) -> dict:
    """The named flags as keyword arguments: a flag's ``dest`` is the
    name of the parameter it sets on the handler's callee."""
    values = vars(args)
    return {name: values[name] for name in names}


def _workload(args) -> "object":
    from repro.sim import WorkloadConfig

    return WorkloadConfig(
        **_named(
            args, "clients", "operations", "insert_ratio", "positions", "seed"
        )
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_figures(args) -> int:
    from repro.analysis.render import render_documents, render_nary_space
    from repro.scenarios import figure1, figure2, figure6, figure7, figure8, run_scenario
    from repro.sim.trace import check_all_specs

    available = {
        "figure1": figure1,
        "figure2": figure2,
        "figure6": figure6,
        "figure7": figure7,
        "figure8": figure8,
    }
    names = args.names or sorted(available)
    for name in names:
        factory = available.get(name)
        if factory is None:
            print(f"unknown figure {name!r}; available: {sorted(available)}")
            return 2
        scenario = factory()
        cluster, execution = run_scenario(scenario)
        print("=" * 70)
        print(f"{scenario.paper_figure}  [{scenario.name}]")
        print("=" * 70)
        if scenario.notes:
            print(scenario.notes)
        print("\nFinal documents:")
        print(render_documents(cluster))
        if hasattr(cluster.server, "space"):
            print("\nState-space:")
            print(render_nary_space(cluster.server.space))
        report = check_all_specs(execution, initial_text=scenario.initial_text)
        print("\nSpecification verdicts:")
        print(report.summary())
        print()
    return 0


def cmd_simulate(args) -> int:
    from repro.analysis import collect_metrics
    from repro.analysis.latency import propagation_stats
    from repro.sim import SimulationRunner
    from repro.sim.trace import check_all_specs

    runner = SimulationRunner(
        args.protocol,
        _workload(args),
        _latency(args.latency, args.seed),
        initial_text=args.initial_text,
    )
    result = runner.run()
    print(f"protocol:  {args.protocol}")
    print(f"converged: {result.converged}")
    print(f"document:  {result.documents()['s']!r}")
    print(f"duration:  {result.duration:.3f}s simulated, "
          f"{result.messages_delivered} messages")
    print(f"latency:   {propagation_stats(result)}")
    metrics = collect_metrics(result.cluster, args.protocol)
    print(
        f"metrics:   OTs={metrics.total_ot_count} "
        f"spaces={metrics.total_spaces} "
        f"space-nodes={metrics.total_space_nodes} "
        f"crdt-metadata={metrics.total_crdt_metadata}"
    )
    report = check_all_specs(
        result.execution, initial_text=args.initial_text
    )
    print(report.summary())
    return 0 if result.converged else 1


def cmd_compare(args) -> int:
    from repro.analysis import collect_metrics
    from repro.sim import SimulationRunner
    from repro.sim.trace import check_all_specs

    protocols = args.protocols or [
        "css", "cscw", "classic", "vector",
        "rga", "logoot", "woot", "treedoc",
    ]
    print(
        f"{'protocol':<9} {'converged':<10} {'weak':<6} {'strong':<7} "
        f"{'OTs':>6} {'spaces':>7} {'nodes':>7} {'metadata':>9}"
    )
    failures = 0
    for protocol in protocols:
        runner = SimulationRunner(
            protocol, _workload(args), _latency(args.latency, args.seed)
        )
        result = runner.run()
        report = check_all_specs(result.execution)
        metrics = collect_metrics(result.cluster, protocol)
        print(
            f"{protocol:<9} {str(result.converged):<10} "
            f"{str(report.weak_list.ok):<6} {str(report.strong_list.ok):<7} "
            f"{metrics.total_ot_count:>6} {metrics.total_spaces:>7} "
            f"{metrics.total_space_nodes:>7} {metrics.total_crdt_metadata:>9}"
        )
        if not (result.converged and report.weak_list.ok):
            failures += 1
    return 0 if failures == 0 else 1


def cmd_equivalence(args) -> int:
    from repro.analysis.equivalence import (
        check_css_compactness,
        check_css_equals_union_of_dss,
        check_dss_subset_of_css,
        compare_protocols,
    )
    from repro.sim import SimulationRunner
    from repro.sim.runner import replay

    config = _workload(args)
    result = SimulationRunner(
        "css", config, _latency(args.latency, args.seed)
    ).run()
    clusters = {"css": result.cluster}
    for protocol in ("cscw", "classic"):
        clusters[protocol] = replay(
            protocol, result.schedule, config.client_names()
        )
    report = compare_protocols(result.schedule, clusters)
    print("Theorem 7.1:", report.summary())
    compact = check_css_compactness(result.cluster)
    subset = check_dss_subset_of_css(clusters["cscw"], result.cluster)
    union = check_css_equals_union_of_dss(clusters["cscw"], result.cluster)
    print(f"Proposition 6.6 (compactness):      {'OK' if not compact else compact}")
    print(f"Proposition 7.4 (DSS ⊆ CSS):        {'OK' if not subset else subset}")
    print(f"Proposition 7.2 (CSS = ⋃ DSS):      {'OK' if not union else union}")
    ok = report.ok and not compact and not subset and not union
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from repro.model.schedule import OpSpec
    from repro.verify import exhaustive_cp1, explore_all_schedules

    cp1 = exhaustive_cp1(max_length=args.max_length)
    print(cp1.summary())
    script = {
        "c1": [OpSpec("ins", 0, "a")],
        "c2": [OpSpec("ins", 0, "b")],
    }
    failures = 0 if cp1.ok else 1
    for protocol in ("css", "cscw", "classic", "vector", "broken"):
        census = explore_all_schedules(
            script, protocol, max_runs=args.max_runs
        )
        print(census.summary())
        if not census.ok:
            failures += 1
    return 0 if failures == 0 else 1


def cmd_report(args) -> int:
    from repro.analysis.report import build_report, report_is_clean

    markdown = build_report(operations=args.operations, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
        print(f"report written to {args.out}")
    else:
        print(markdown)
    return 0 if report_is_clean(markdown) else 1


def cmd_record(args) -> int:
    from repro.model.schedule_io import save_schedule
    from repro.sim import SimulationRunner

    config = _workload(args)
    result = SimulationRunner(
        "css", config, _latency(args.latency, args.seed)
    ).run()
    save_schedule(
        result.schedule,
        args.out,
        metadata={
            "clients": config.client_names(),
            "operations": config.operations,
            "seed": config.seed,
            "latency": args.latency,
            "document": result.documents()["s"],
        },
    )
    print(
        f"recorded {len(result.schedule)} steps "
        f"({config.operations} operations) to {args.out}"
    )
    print(f"final document: {result.documents()['s']!r}")
    return 0


def cmd_replay(args) -> int:
    from repro.errors import ScheduleError
    from repro.model.schedule_io import load_metadata, load_schedule
    from repro.sim.runner import replay as replay_schedule
    from repro.sim.trace import check_all_specs

    schedule = load_schedule(args.path)
    metadata = load_metadata(args.path)
    clients = metadata.get("clients") or schedule.clients()
    try:
        cluster = replay_schedule(args.protocol, schedule, clients)
    except ScheduleError as exc:
        # `record` runs CSS, whose server echoes; vector's sends no
        # echo, so it replays only schedules recorded without them.
        print(f"schedule does not fit {args.protocol}: {exc}")
        return 2
    documents = cluster.documents()
    print(f"replayed {len(schedule)} steps on {args.protocol}")
    print(f"final document: {documents['s']!r}")
    expected = metadata.get("document")
    if expected is not None:
        match = documents["s"] == expected
        print(f"matches recorded document: {match}")
    report = check_all_specs(cluster.recorder.finish())
    print(report.summary())
    return 0 if len(set(documents.values())) == 1 else 1


def cmd_fuzz(args) -> int:
    from repro.sim.fuzz import fuzz

    report = fuzz(cases=args.cases, seed=args.seed, protocols=args.protocols)
    print(report.summary())
    return 0 if report.ok else 1


def _drop_rate(text: str) -> float:
    from repro.sim.faults import MAX_DROP

    value = float(text)
    if not 0.0 <= value < MAX_DROP:
        raise argparse.ArgumentTypeError(
            f"drop rate {value} not in [0, {MAX_DROP}): a channel that drops "
            "(nearly) everything can never be made reliable"
        )
    return value


def cmd_chaos(args) -> int:
    from repro.sim.fuzz import chaos_sweep

    if args.server_crash and args.protocol != "css":
        print(
            f"--server-crash requires --protocol css (got {args.protocol!r}):"
            " server recovery replays the write-ahead log through a CssServer"
        )
        return 2
    replicas = args.replicas
    if args.kill_primary and not replicas:
        replicas = 3
    if replicas and args.protocol != "css":
        print(
            f"--replicas/--kill-primary require --protocol css "
            f"(got {args.protocol!r}): replication quorum-commits the "
            "CSS write-ahead log"
        )
        return 2
    report = chaos_sweep(
        workload=_workload(args),
        check_replay=not args.no_replay,
        replicas=replicas,
        primary_kills=args.kill_primary or 1,
        **_named(
            args, "protocol", "plans", "seed", "max_drop", "server_crash"
        ),
    )
    print(report.table())
    print(report.summary())
    return 0 if report.ok else 1


def cmd_dcss(args) -> int:
    from repro.sim.p2p import P2PSimulationRunner
    from repro.sim.trace import check_all_specs

    runner = P2PSimulationRunner(
        _workload(args), _latency(args.latency, args.seed)
    )
    result = runner.run()
    print(f"peers:     {args.clients}")
    print(f"converged: {result.converged}")
    print(f"document:  {result.documents()[sorted(result.documents())[0]]!r}")
    print(
        f"duration:  {result.duration:.3f}s simulated, "
        f"{result.messages_delivered} messages (operations + stability acks)"
    )
    print(
        "state-spaces identical: "
        f"{result.cluster.state_spaces_identical()}"
    )
    report = check_all_specs(result.execution)
    print(report.summary())
    return 0 if result.converged else 1


def _configure_net_process(args) -> None:
    """Shared startup for the deployed-runtime verbs (serve/connect).

    Observability must be enabled *before* the instrumented objects are
    constructed (see :mod:`repro.obs`), so this runs first in each
    handler.  Logging goes to stderr so ``--announce`` / ``--json``
    stdout stays machine-parseable.
    """
    import logging

    from repro import obs

    if not getattr(args, "no_obs", False):
        obs.enable()
    quiet = getattr(args, "quiet", False)
    level_name = getattr(args, "log_level", None) or (
        "warning" if quiet else "info"
    )
    logging.basicConfig(
        level=getattr(logging, level_name.upper(), logging.INFO),
        stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def cmd_serve(args) -> int:
    from repro.net.codec import DEFAULT_DOC
    from repro.net.server import run_server

    _configure_net_process(args)
    roster = None
    replica_index = 0
    if args.replica_of:
        from repro.net.codec import parse_roster

        roster = parse_roster(args.replica_of)
        if args.port == 0:
            print(
                "--replica-of needs a fixed --port: the replica finds its "
                "own roster index by matching --host:--port",
                file=sys.stderr,
            )
            return 2
        try:
            replica_index = roster.index((args.host, args.port))
        except ValueError:
            print(
                f"--host {args.host} --port {args.port} does not appear in "
                f"the roster {args.replica_of!r}",
                file=sys.stderr,
            )
            return 2
    if args.wal_dir and roster:
        print(
            "--wal-dir is for standalone (fleet) workers; a replicated "
            "group's durability is the quorum, not per-document files",
            file=sys.stderr,
        )
        return 2
    return run_server(
        roster=roster,
        replica_index=replica_index,
        write_timeout=args.write_timeout if args.write_timeout > 0 else None,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        doc_id=args.doc if args.doc is not None else DEFAULT_DOC,
        **_named(
            args, "host", "port", "announce", "initial_text",
            "wal_dir", "gc_grace", "failover_delay",
            "max_connections", "max_queued_frames", "outbound_queue",
            "retry_after",
        ),
    )


def cmd_connect(args) -> int:
    import asyncio

    from repro.net.loadgen import percentile, run_worker

    _configure_net_process(args)
    report = asyncio.run(
        run_worker(
            expect_total=(
                args.expect_total if args.expect_total is not None else args.ops
            ),
            **_named(
                args, "host", "port", "client_id", "ops", "seed",
                "insert_ratio", "reconnect_after", "op_interval", "timeout",
                "roster", "max_reconnect_attempts", "doc",
                "max_connect_attempts", "duration",
            ),
        )
    )
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"client:     {report['client']}")
        print(f"ops:        {report['ops']}")
        print(f"converged:  {report['converged']}")
        print(f"signature:  {report['signature']}")
        print(f"delivered:  {report['delivered']}")
        print(f"reconnects: {report['reconnects']} "
              f"(resynced {report['resync_on_reconnect']} frames)")
        rtts = report["rtt_ms"]
        print(f"rtt:        p50={percentile(rtts, 0.5):.2f}ms "
              f"p99={percentile(rtts, 0.99):.2f}ms over {len(rtts)} echoes")
    return 0 if report["converged"] else 1


def _load_scenario(args):
    """Resolve a scenario from --file (JSON) or --name (the library)."""
    from repro.scenarios import Scenario, get_scenario

    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as handle:
            return Scenario.from_obj(json.load(handle))
    if not getattr(args, "name", None):
        print("error: pass --name (library scenario) or --file", flush=True)
        raise SystemExit(2)
    return get_scenario(args.name)


def _execute_scenario(scenario, mode: str, args):
    if mode == "sim":
        from repro.scenarios import run_sim_scenario

        return run_sim_scenario(
            scenario, args.seed, protocol=args.protocol
        ).run
    from repro.scenarios import run_wire_scenario

    return run_wire_scenario(
        scenario,
        args.seed,
        time_scale=args.time_scale,
        timeout=args.timeout,
    )


def cmd_scenario_list(args) -> int:
    from repro.scenarios import LIBRARY, compile_scenario

    rows = []
    for name, scenario in LIBRARY.items():
        program = compile_scenario(scenario, 0)
        rows.append(
            {
                "name": name,
                "clients": len(scenario.clients),
                "phases": [phase.name for phase in scenario.phases],
                "ops": program.total_ops,
                "span_seconds": round(program.duration, 2),
                "chaos": scenario.chaos is not None,
                "description": scenario.description,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(f"{'name':<18} {'clients':>7} {'ops':>5} {'span':>7}  description")
    for row in rows:
        chaos = " [chaos]" if row["chaos"] else ""
        print(
            f"{row['name']:<18} {row['clients']:>7} {row['ops']:>5} "
            f"{row['span_seconds']:>6.1f}s  {row['description']}{chaos}"
        )
    return 0


def cmd_scenario_run(args) -> int:
    from repro.scenarios import render_timeline

    scenario = _load_scenario(args)
    modes = ["sim", "wire"] if args.mode == "both" else [args.mode]
    runs = [_execute_scenario(scenario, mode, args) for mode in modes]
    if args.out:
        payload = {"runs": [run.to_obj() for run in runs]}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"run record written: {args.out}")
    if args.json:
        print(
            json.dumps(
                [run.to_obj() for run in runs], sort_keys=True
            )
        )
    else:
        for run in runs:
            print(render_timeline(run, width=args.width))
            print()
    return 0 if all(run.converged for run in runs) else 1


def cmd_scenario_render(args) -> int:
    from repro.scenarios import ScenarioRun, render_html, render_timeline

    if args.run:
        with open(args.run, encoding="utf-8") as handle:
            payload = json.load(handle)
        objs = (
            payload["runs"]
            if isinstance(payload, dict) and "runs" in payload
            else [payload]
        )
        runs = [ScenarioRun.from_obj(obj) for obj in objs]
    else:
        scenario = _load_scenario(args)
        mode = args.mode if args.mode != "both" else "sim"
        runs = [_execute_scenario(scenario, mode, args)]
    for run in runs:
        print(render_timeline(run, width=args.width))
        print()
    if args.html:
        for index, run in enumerate(runs):
            path = (
                args.html if len(runs) == 1 else f"{args.html}.{index}.html"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_html(run))
            print(f"html timeline written: {path}")
    return 0


def _chaos_plan(args, prefix: str = ""):
    """The plan spelled by the ``--<prefix><field>`` flags ``args`` has
    (:func:`_add_chaos_plan_arguments`); other fields keep their default."""
    from dataclasses import fields

    from repro.sim.faults import NetChaosPlan

    values = vars(args)
    return NetChaosPlan(
        **{
            field.name: values[prefix + field.name]
            for field in fields(NetChaosPlan)
            if prefix + field.name in values
        }
    )


def cmd_loadgen(args) -> int:
    from repro.net.loadgen import run_loadgen

    report = run_loadgen(
        chaos=_chaos_plan(args, "chaos_") if args.chaos else None,
        **_named(
            args, "clients", "ops", "seed", "host", "port", "timeout",
            "insert_ratio", "op_interval", "reconnect_clients",
            "initial_text", "quiet", "replicas",
            "kill_primary", "failover_delay", "kill_after",
        ),
    )
    server_desc = (
        f"{report['replicas']} replica processes"
        if report["replicas"] > 1
        else "1 server process"
    )
    print(f"clients:       {report['clients']} processes + {server_desc}")
    if report["replicas"] > 1:
        print(f"replication:   primary={report['primary']} "
              f"view={report['view']} view-changes={report['view_changes']} "
              f"killed-primary={report['killed_primary']}")
    print(f"operations:    {report['ops']} (serialised {report['serial']})")
    print(f"converged:     {report['converged']}")
    print(f"signatures:    identical={report['signatures_identical']}")
    for replica in sorted(report["signatures"]):
        print(f"  {replica:<4} {report['signatures'][replica]}")
    print(f"reconnects:    {report['reconnects']} "
          f"(resynced {report['resync_on_reconnect']} frames from the WAL)")
    print(f"throughput:    {report['ops_per_sec']:.1f} ops/sec "
          f"({report['wall_seconds']:.2f}s wall)")
    print(f"round-trip:    p50={report['rtt_ms_p50']:.2f}ms "
          f"p99={report['rtt_ms_p99']:.2f}ms")
    stats = report["server_stats"]
    print(f"server:        frames={stats['frames_received']} "
          f"resync-sent={stats['resync_frames_sent']} "
          f"dups-suppressed={stats['duplicates_suppressed']} "
          f"wal-appends={stats['wal']['appends']} "
          f"wal-compactions={stats['wal']['compactions']}")
    from repro.obs import snapshot_total

    merged = report.get("client_metrics") or {}

    def metric(name: str) -> float:
        # snapshot_total, not snapshot_value: the frame counters carry a
        # doc label, so the per-name total is the sum over label values.
        return snapshot_total(merged, name) or 0.0

    if merged.get("metrics"):
        print(f"metrics:       rtt-observations={metric('repro_net_rtt_seconds'):.0f} "
              f"retransmits={metric('repro_session_retransmits_total'):.0f} "
              f"dups={metric('repro_session_duplicates_total'):.0f} "
              f"frames-in={metric('repro_net_frames_received_total'):.0f} "
              f"frames-out={metric('repro_net_frames_sent_total'):.0f}")
    print(f"server-obs:    enabled={report['server_metrics_enabled']} "
          f"(scrape with: repro metrics --port <port>)")
    if report.get("chaos") is not None:
        overload = stats.get("overload", {})
        print(f"chaos:         plan={report['chaos']}")
        print(f"overload:      connections={overload.get('connections')} "
              f"evictions={overload.get('evictions')} "
              f"shed={overload.get('shed')} "
              f"oversize-rejected={overload.get('oversize_rejected')}")
    if report["replicas"] > 1 or report.get("chaos") is not None:
        # Surface the failover / overload instruments from the primary's
        # Prometheus exposition so smoke jobs can assert on them.
        wanted = (
            "repro_view_changes_total",
            "repro_repl_commit_floor",
            "repro_failover_seconds_count",
            "repro_net_evictions_total",
            "repro_net_shed_total",
            "repro_net_write_stalls_total",
            "repro_net_oversize_rejected_total",
        )
        for line in (report.get("server_exposition") or "").splitlines():
            if line.startswith(wanted):
                print(f"exposition:    {line}")
    for failure in report["failures"]:
        print(f"FAILURE: {failure}")
    return 0 if report["ok"] else 1


def cmd_metrics(args) -> int:
    """Scrape one or many running servers' metrics over the admin plane.

    With repeated ``--addr host:port`` the snapshots are merged exactly
    (:func:`repro.obs.merge_snapshots`) into one fleet-wide exposition.
    Exit 2 when *no* endpoint is reachable; exit 1 only when every
    reachable endpoint has observability disabled.
    """
    from repro.net.loadgen import admin
    from repro.obs import merge_snapshots, render_snapshot

    replies = []
    for host, port in args.addr or [(args.host, args.port)]:
        try:
            replies.append(admin(host, port, "metrics"))
        except (ConnectionError, OSError) as exc:
            print(f"cannot scrape {host}:{port}: {exc}", file=sys.stderr)
    if not replies:
        return 2
    enabled = [reply for reply in replies if reply.get("enabled")]
    if len(replies) == 1:
        # Single endpoint: pass its exposition through verbatim.
        snapshot = replies[0].get("snapshot")
        exposition = replies[0].get("exposition") or ""
    else:
        snapshot = merge_snapshots(
            [
                reply.get("snapshot") or {}
                for reply in enabled
                if (reply.get("snapshot") or {}).get("metrics")
            ]
        )
        exposition = render_snapshot(snapshot) if snapshot.get("metrics") else ""
    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
    else:
        sys.stdout.write(exposition)
    if not enabled:
        print(
            "observability is disabled on every reachable endpoint "
            "(start them without --no-obs)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_chaosproxy(args) -> int:
    """Run a seeded TCP chaos proxy in front of a serve instance."""
    from repro.errors import SimulationError
    from repro.net.chaosproxy import run_chaosproxy
    from repro.sim.faults import NetChaosPlan

    try:
        if args.plan_json:
            plan = NetChaosPlan.from_obj(json.loads(args.plan_json))
        else:
            plan = _chaos_plan(args)
    except (ValueError, TypeError, SimulationError) as exc:
        print(f"bad chaos plan: {exc}", file=sys.stderr)
        return 2
    return run_chaosproxy(
        *args.target, plan=plan, **_named(args, "host", "port", "announce")
    )


def _parse_addr(text: str) -> Tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not host:port")
    return host, int(port_text)


def cmd_fleet_route(args) -> int:
    from repro.net.fleet import run_router

    _configure_net_process(args)
    return run_router(
        **_named(
            args, "host", "port", "announce", "lease_seconds",
            "heartbeat_interval", "retry_after",
        )
    )


def cmd_fleet_worker(args) -> int:
    from repro.net.fleet import run_fleet_worker

    _configure_net_process(args)
    return run_fleet_worker(
        args.worker_id,
        *args.router,
        **_named(
            args, "host", "port", "announce", "wal_dir", "initial_text",
            "heartbeat_seed",
        ),
    )


def cmd_fleet_loadgen(args) -> int:
    from repro.net.fleet import run_fleet_loadgen

    report = run_fleet_loadgen(
        **_named(
            args, "workers", "docs", "clients_per_doc", "ops_per_doc",
            "seed", "host", "op_interval", "timeout", "insert_ratio",
            "kill_worker", "kill_after", "lease_seconds",
            "heartbeat_interval", "wal_dir", "quiet",
        )
    )
    if args.json:
        # The raw per-client reports and merged snapshot are bulky;
        # --json is for scripted assertions, which want the verdict.
        slim = {
            key: value
            for key, value in report.items()
            if key not in ("clients", "fleet_metrics")
        }
        print(json.dumps(slim, sort_keys=True))
        return 0 if report["ok"] else 1
    print(
        f"fleet:         {report['workers']} workers x {report['docs']} "
        f"documents x {report['clients_per_doc']} clients"
    )
    print(f"operations:    {report['total_ops']} "
          f"({report['ops_per_doc']} per document)")
    print(f"converged:     {report['converged']}")
    print(f"signatures:    identical-per-doc={report['signatures_identical']}")
    print(f"placement:     skew={report['placement_skew']:.2f} "
          f"live={','.join(report['live_workers'])}")
    if report["killed_worker"]:
        print(f"kill drill:    killed={report['killed_worker']} "
              f"expirations={report['expirations']} "
              f"re-placed={','.join(report['replaced_docs']) or '-'} "
              f"replacement-ok={report['replacement_ok']}")
    print(f"throughput:    {report['ops_per_sec']:.1f} ops/sec fleet-wide "
          f"({report['wall_seconds']:.2f}s wall)")
    print(f"redirects:     total={report['redirects_total']} "
          f"p99-per-client={report['redirects_p99']:.0f}")
    print(f"round-trip:    p50={report['rtt_ms_p50']:.2f}ms "
          f"p99={report['rtt_ms_p99']:.2f}ms")
    router = report["router_stats"]
    print(f"router:        registrations={router['registrations']} "
          f"redirects={router['redirects']} "
          f"expirations={router['expirations']} "
          f"replacements={router['replacements']}")
    for doc in sorted(report["docs_detail"]):
        detail = report["docs_detail"][doc]
        print(f"  {doc:<8} owner={detail.get('owner', '?'):<4} "
              f"serial={detail.get('serial', '?'):>4} "
              f"converged={detail['converged']} "
              f"identical={detail['signatures_identical']} "
              f"{detail['ops_per_sec']:.1f} ops/sec")
    for failure in report["failures"]:
        print(f"FAILURE: {failure}")
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_edit_mix_arguments(parser, seed: int) -> None:
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--insert-ratio", type=float, default=0.7)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--operations", type=int, default=30)
    parser.add_argument(
        "--positions",
        choices=("uniform", "append", "hotspot"),
        default="uniform",
    )
    _add_edit_mix_arguments(parser, seed=0)
    parser.add_argument(
        "--latency", choices=LATENCY_PRESETS, default="wan"
    )


def _add_edit_stream_arguments(parser, seed: int, timeout: float) -> None:
    """The seeded edit stream of a ``connect`` worker; the coordinators
    take the same flags and hand them down to theirs."""
    _add_edit_mix_arguments(parser, seed)
    parser.add_argument(
        "--op-interval",
        type=float,
        default=0.02,
        help="per-client pause between generated edits (seconds)",
    )
    parser.add_argument("--timeout", type=float, default=timeout)


def _add_endpoint_arguments(parser, port=None, marker=None) -> None:
    """``--host`` and (given its default) ``--port``; ``marker`` makes
    it a listener verb, which can ``--announce`` where it bound."""
    parser.add_argument("--host", default="127.0.0.1")
    if port is not None:
        parser.add_argument(
            "--port",
            type=int,
            default=port,
            help="TCP port; a verb that listens takes 0 for an ephemeral one",
        )
    if marker is not None:
        parser.add_argument(
            "--announce",
            action="store_true",
            help=f"print one machine-parseable {marker} line on startup",
        )


def _add_quiet_argument(parser) -> None:
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="log warnings only; a coordinator prints no progress lines",
    )


def _add_process_arguments(parser, log_level=None) -> None:
    """What :func:`_configure_net_process` reads besides ``--quiet``."""
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=log_level,
        help="log level on stderr (default: info, or warning with --quiet)",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable the metrics registry and trace ring",
    )


def _add_document_arguments(parser, wal_dir_help=None) -> None:
    parser.add_argument(
        "--initial", dest="initial_text", default="", help="initial document"
    )
    if wal_dir_help is not None:
        parser.add_argument("--wal-dir", default=None, help=wal_dir_help)


def _add_failover_delay_argument(parser) -> None:
    parser.add_argument(
        "--failover-delay",
        type=float,
        default=0.5,
        help="seconds a backup waits after losing the primary feed before "
        "starting a view change (staggered by successor rank)",
    )


def _add_kill_after_argument(parser, victim: str) -> None:
    parser.add_argument(
        "--kill-after",
        type=float,
        default=None,
        help=f"seconds into the run to kill the {victim} (default: mid-run)",
    )


def _add_lease_arguments(parser) -> None:
    parser.add_argument(
        "--lease",
        dest="lease_seconds",
        type=float,
        default=1.2,
        help="seconds a worker lease survives without a heartbeat",
    )
    parser.add_argument(
        "--heartbeat",
        dest="heartbeat_interval",
        type=float,
        default=0.3,
        help="heartbeat interval the router quotes to workers",
    )


def _add_chaos_plan_arguments(
    parser, prefix: str = "", delay: float = 0.0, stalls: bool = True
) -> None:
    """NetChaosPlan fields as ``--<prefix><field>`` flags (read back by
    :func:`_chaos_plan`); ``delay`` is the default latency and jitter."""
    parser.add_argument(f"--{prefix}seed", type=int, default=0)
    parser.add_argument(
        f"--{prefix}latency",
        type=float,
        default=delay,
        help="fixed per-chunk forwarding delay (seconds)",
    )
    parser.add_argument(
        f"--{prefix}jitter",
        type=float,
        default=delay,
        help="additional uniform random delay (seconds)",
    )
    parser.add_argument(
        f"--{prefix}bandwidth",
        type=int,
        default=0,
        help="per-connection bandwidth cap (bytes/sec, 0 = uncapped)",
    )
    parser.add_argument(
        f"--{prefix}reset-after",
        type=float,
        default=None,
        help="abort every live proxied connection once, this many "
        "seconds into the run",
    )
    if stalls:
        parser.add_argument(
            f"--{prefix}stall-at",
            type=float,
            default=None,
            help="slow-loris each connection this many seconds after it "
            "opens (socket stays up, no bytes move)",
        )
        parser.add_argument(
            f"--{prefix}stall-for",
            type=float,
            default=0.0,
            help="how long each stall lasts (seconds)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Replicated-list / Jupiter protocol reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figures = commands.add_parser(
        "figures", help="regenerate the paper's figures"
    )
    figures.add_argument("names", nargs="*", help="figure1 figure2 ...")
    figures.set_defaults(handler=cmd_figures)

    simulate = commands.add_parser(
        "simulate", help="run one protocol under a random workload"
    )
    simulate.add_argument("--protocol", default="css", choices=PROTOCOLS)
    simulate.add_argument(
        "--initial", dest="initial_text", default="", help="initial document"
    )
    _add_workload_arguments(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    compare = commands.add_parser(
        "compare", help="run all protocols on one identical workload"
    )
    compare.add_argument("--protocols", nargs="*", default=None)
    _add_workload_arguments(compare)
    compare.set_defaults(handler=cmd_compare)

    equivalence = commands.add_parser(
        "equivalence", help="Theorem 7.1 / Propositions 6.6, 7.2, 7.4"
    )
    _add_workload_arguments(equivalence)
    equivalence.set_defaults(handler=cmd_equivalence)

    dcss = commands.add_parser(
        "dcss", help="run the decentralised CSS extension"
    )
    _add_workload_arguments(dcss)
    dcss.set_defaults(handler=cmd_dcss)

    verify = commands.add_parser(
        "verify",
        help="exhaustive CP1 + all schedules of a small script, per protocol",
    )
    verify.add_argument("--max-length", type=int, default=4)
    verify.add_argument("--max-runs", type=int, default=50_000)
    verify.set_defaults(handler=cmd_verify)

    report = commands.add_parser(
        "report", help="run the experiment suite and emit a Markdown report"
    )
    report.add_argument("--out", default=None, help="output path (stdout if omitted)")
    report.add_argument("--operations", type=int, default=30)
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(handler=cmd_report)

    record = commands.add_parser(
        "record", help="record a schedule to a JSON file"
    )
    record.add_argument("--out", required=True, help="output path")
    _add_workload_arguments(record)
    record.set_defaults(handler=cmd_record)

    replay = commands.add_parser(
        "replay", help="replay a recorded schedule on a protocol"
    )
    replay.add_argument("path", help="schedule JSON produced by 'record'")
    replay.add_argument("--protocol", default="css", choices=PROTOCOLS)
    replay.set_defaults(handler=cmd_replay)

    fuzz = commands.add_parser(
        "fuzz", help="random configurations checked against the specs"
    )
    fuzz.add_argument("--cases", type=int, default=25)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--protocols", nargs="*", default=None)
    fuzz.set_defaults(handler=cmd_fuzz)

    chaos = commands.add_parser(
        "chaos",
        help="sampled fault plans against the reliable-session layer",
    )
    chaos.add_argument(
        "--protocol",
        default="css",
        choices=("css", "css-gc", "cscw", "classic", "vector"),
    )
    chaos.add_argument("--plans", type=int, default=10)
    chaos.add_argument("--max-drop", type=_drop_rate, default=0.3)
    chaos.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the fault-free replay cross-check",
    )
    chaos.add_argument(
        "--server-crash",
        action="store_true",
        help="crash the server mid-run and recover it from the "
        "write-ahead log (css only)",
    )
    chaos.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="replicate the server over a 2f+1 quorum roster (css only)",
    )
    chaos.add_argument(
        "--kill-primary",
        type=int,
        nargs="?",
        const=1,
        default=0,
        help="kill the primary this many times per plan (implies "
        "--replicas 3 when no roster size is given)",
    )
    _add_workload_arguments(chaos)
    chaos.set_defaults(handler=cmd_chaos)

    serve = commands.add_parser(
        "serve", help="host a CSS server behind a real TCP listener"
    )
    _add_endpoint_arguments(serve, port=4400, marker="REPRO-SERVE")
    _add_document_arguments(
        serve,
        wal_dir_help="directory for per-document write-ahead logs; enables "
        "multi-document hosting with crash recovery (standalone only, "
        "incompatible with --replica-of)",
    )
    serve.add_argument(
        "--gc-grace",
        type=float,
        default=15.0,
        help="seconds a disconnected session keeps pinning server "
        "history; a client away longer resyncs via state transfer "
        "on return",
    )
    serve.add_argument(
        "--doc",
        default=None,
        help="document id this server hosts by default (clients that "
        "send no doc in their hello land here)",
    )
    serve.add_argument(
        "--replica-of",
        default=None,
        metavar="HOST:PORT,...",
        help="ordered 2f+1 replica roster this server belongs to; its own "
        "--host:--port must appear in it (the index is the replica id)",
    )
    _add_failover_delay_argument(serve)
    serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="admission control: shed new sessions beyond this many live "
        "connections (reconnects of a known client always supersede)",
    )
    serve.add_argument(
        "--max-queued-frames",
        type=int,
        default=8192,
        help="admission control: shed new sessions while the total "
        "outbound backlog exceeds this many frames",
    )
    serve.add_argument(
        "--outbound-queue",
        type=int,
        default=256,
        help="per-connection outbound frame queue; a consumer that lets "
        "it overflow is evicted (and resyncs losslessly from the WAL)",
    )
    serve.add_argument(
        "--write-timeout",
        type=float,
        default=10.0,
        help="per-frame write deadline in seconds; a peer that stalls a "
        "write past it is evicted (0 disables)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=60.0,
        help="evict a session that completes no frame within this many "
        "seconds; the client heartbeat keeps healthy sessions alive "
        "(0 disables)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="seconds quoted in the retry_after envelope when admission "
        "control sheds a connection",
    )
    _add_quiet_argument(serve)
    _add_process_arguments(serve)
    serve.set_defaults(handler=cmd_serve)

    connect = commands.add_parser(
        "connect", help="run one CSS client process against a server"
    )
    _add_endpoint_arguments(connect, port=4400)
    connect.add_argument(
        "--client", dest="client_id", default="c1", help="replica name"
    )
    connect.add_argument(
        "--doc",
        default="",
        help="document to edit; sent in the hello so a fleet router (or "
        "multi-document server) can pick the shard (default: let the "
        "server choose its default document)",
    )
    connect.add_argument(
        "--max-connect-attempts",
        type=int,
        default=8,
        help="connection/redirect budget per (re)connect cycle; raise "
        "it when the target is a fleet router that may redirect to a "
        "dead worker until its lease expires",
    )
    connect.add_argument(
        "--ops", type=int, default=0, help="seeded edits to generate"
    )
    connect.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop generating after this many seconds of wall clock; "
        "with --ops 0 the deadline alone bounds the run, with --ops N "
        "the run stops at whichever limit is hit first",
    )
    connect.add_argument(
        "--expect-total",
        type=int,
        default=None,
        help="total operations across all clients to wait for "
        "(default: --ops)",
    )
    _add_edit_stream_arguments(connect, seed=0, timeout=60.0)
    connect.add_argument(
        "--reconnect-after",
        type=int,
        default=None,
        help="drop and re-establish the connection after this many edits",
    )
    connect.add_argument(
        "--roster",
        default=None,
        metavar="HOST:PORT,...",
        help="replica roster for failover: on connection loss the client "
        "walks it and follows redirects to the current primary",
    )
    connect.add_argument(
        "--max-reconnect-attempts",
        type=int,
        default=None,
        help="give up (with a clean error) after this many mid-run "
        "reconnect cycles (default: unbounded)",
    )
    connect.add_argument(
        "--json", action="store_true", help="emit the report as one JSON line"
    )
    _add_process_arguments(connect, log_level="warning")
    connect.set_defaults(handler=cmd_connect)

    loadgen = commands.add_parser(
        "loadgen",
        help="spawn a server + N client processes and verify convergence",
    )
    loadgen.add_argument("--clients", type=int, default=3)
    loadgen.add_argument(
        "--ops", type=int, default=500, help="total operations across clients"
    )
    _add_endpoint_arguments(loadgen, port=0)
    _add_edit_stream_arguments(loadgen, seed=7, timeout=240.0)
    loadgen.add_argument(
        "--reconnect-clients",
        type=int,
        default=None,
        help="workers that drop/reconnect mid-run "
        "(default: 1 when clients > 1)",
    )
    _add_document_arguments(loadgen)
    loadgen.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="spawn a 2f+1 replica roster instead of one server "
        "(odd count >= 3)",
    )
    loadgen.add_argument(
        "--kill-primary",
        action="store_true",
        help="SIGKILL the view-0 primary mid-run and require a view "
        "change (needs --replicas >= 3)",
    )
    _add_failover_delay_argument(loadgen)
    _add_kill_after_argument(loadgen, "primary")
    loadgen.add_argument(
        "--chaos",
        action="store_true",
        help="route every worker through a seeded TCP chaos proxy built "
        "from the --chaos-* flags (single-server runs only; see also "
        "the chaosproxy verb)",
    )
    _add_chaos_plan_arguments(loadgen, "chaos-", delay=0.005, stalls=False)
    _add_quiet_argument(loadgen)
    loadgen.set_defaults(handler=cmd_loadgen)

    metrics = commands.add_parser(
        "metrics",
        help="scrape one or many servers' Prometheus expositions",
    )
    _add_endpoint_arguments(metrics, port=4400)
    metrics.add_argument(
        "--addr",
        action="append",
        type=_parse_addr,
        default=None,
        metavar="HOST:PORT",
        help="endpoint to scrape; repeat to merge several processes' "
        "snapshots exactly into one fleet-wide exposition "
        "(overrides --host/--port)",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="emit the raw snapshot as JSON instead of text exposition",
    )
    metrics.set_defaults(handler=cmd_metrics)

    fleet = commands.add_parser(
        "fleet",
        help="sharded multi-document tier: router, workers, loadgen",
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_route = fleet_commands.add_parser(
        "route",
        help="run the fleet router: redirect each hello to its "
        "document's rendezvous-placed worker",
    )
    _add_endpoint_arguments(
        fleet_route, port=4500, marker="REPRO-FLEET-ROUTER"
    )
    _add_lease_arguments(fleet_route)
    fleet_route.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        help="seconds quoted to clients when no worker lease is live",
    )
    _add_quiet_argument(fleet_route)
    _add_process_arguments(fleet_route)
    fleet_route.set_defaults(handler=cmd_fleet_route)

    fleet_worker = fleet_commands.add_parser(
        "worker",
        help="run one fleet worker: a multi-document server that "
        "registers with the router and keeps its lease alive",
    )
    fleet_worker.add_argument(
        "--worker",
        dest="worker_id",
        required=True,
        help="worker id (unique in the fleet)",
    )
    fleet_worker.add_argument(
        "--router",
        required=True,
        type=_parse_addr,
        metavar="HOST:PORT",
        help="the fleet router's registration endpoint",
    )
    _add_endpoint_arguments(
        fleet_worker, port=0, marker="REPRO-FLEET-WORKER"
    )
    _add_document_arguments(
        fleet_worker,
        wal_dir_help="shared per-document WAL directory (placement moves, "
        "storage stays: a re-placed document is recovered here by its "
        "new owner)",
    )
    fleet_worker.add_argument(
        "--heartbeat-seed",
        type=int,
        default=0,
        help="seed for the heartbeat jitter (de-correlates a fleet "
        "restarted in lockstep)",
    )
    _add_quiet_argument(fleet_worker)
    _add_process_arguments(fleet_worker)
    fleet_worker.set_defaults(handler=cmd_fleet_worker)

    fleet_loadgen = fleet_commands.add_parser(
        "loadgen",
        help="spawn router + K workers x D documents x C clients and "
        "verify per-document convergence",
    )
    fleet_loadgen.add_argument("--workers", type=int, default=2)
    fleet_loadgen.add_argument("--docs", type=int, default=8)
    fleet_loadgen.add_argument("--clients-per-doc", type=int, default=3)
    fleet_loadgen.add_argument(
        "--ops-per-doc",
        type=int,
        default=60,
        help="total operations per document, split across its clients",
    )
    _add_endpoint_arguments(fleet_loadgen)
    _add_edit_stream_arguments(fleet_loadgen, seed=7, timeout=240.0)
    fleet_loadgen.add_argument(
        "--kill-worker",
        action="store_true",
        help="SIGKILL one worker mid-run and require every document "
        "re-placed onto survivors with zero lost acked operations",
    )
    _add_kill_after_argument(fleet_loadgen, "worker")
    _add_lease_arguments(fleet_loadgen)
    fleet_loadgen.add_argument(
        "--wal-dir",
        default=None,
        help="shared WAL directory (default: a fresh temp dir, removed "
        "afterwards)",
    )
    _add_quiet_argument(fleet_loadgen)
    fleet_loadgen.add_argument(
        "--json",
        action="store_true",
        help="emit the verdict as one JSON line (omits bulky raw "
        "per-client reports)",
    )
    fleet_loadgen.set_defaults(handler=cmd_fleet_loadgen)

    chaosproxy = commands.add_parser(
        "chaosproxy",
        help="seeded TCP chaos proxy in front of a serve instance",
    )
    chaosproxy.add_argument(
        "--target",
        required=True,
        type=_parse_addr,
        metavar="HOST:PORT",
        help="the serve instance to forward to",
    )
    _add_endpoint_arguments(chaosproxy, port=0, marker="REPRO-CHAOSPROXY")
    chaosproxy.add_argument(
        "--plan-json",
        default=None,
        help="full NetChaosPlan as one JSON object (overrides the "
        "individual fault flags)",
    )
    _add_chaos_plan_arguments(chaosproxy)
    chaosproxy.set_defaults(handler=cmd_chaosproxy)

    scenario = commands.add_parser(
        "scenario",
        help="declarative editing workloads: list the library, run one "
        "under the sim or the wire runtime, render its timeline",
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_list = scenario_commands.add_parser(
        "list", help="show the built-in scenario library"
    )
    scenario_list.add_argument(
        "--json", action="store_true", help="emit the registry as JSON"
    )
    scenario_list.set_defaults(handler=cmd_scenario_list)

    def _scenario_exec_args(sub, modes=("sim", "wire", "both")) -> None:
        sub.add_argument("--name", default=None, help="library scenario name")
        sub.add_argument(
            "--file",
            default=None,
            help="scenario JSON file (the Scenario.to_obj shape)",
        )
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument(
            "--mode",
            choices=modes,
            default="sim",
            help="execution binding (sim: in-process event loop; wire: "
            "real TCP server + clients)",
        )
        sub.add_argument(
            "--protocol", default="css", help="sim-mode protocol"
        )
        sub.add_argument(
            "--time-scale",
            type=float,
            default=1.0,
            help="wire-mode wall-clock compression: 0.25 runs a "
            "4-second scenario in about one second",
        )
        sub.add_argument("--timeout", type=float, default=60.0)
        sub.add_argument(
            "--width", type=int, default=72, help="timeline columns"
        )

    scenario_run = scenario_commands.add_parser(
        "run", help="compile and execute one scenario, print its timeline"
    )
    _scenario_exec_args(scenario_run)
    scenario_run.add_argument(
        "--out",
        default=None,
        help="write the run record(s) as JSON for `scenario render --run`",
    )
    scenario_run.add_argument(
        "--json",
        action="store_true",
        help="emit the run record(s) as one JSON line instead of timelines",
    )
    scenario_run.set_defaults(handler=cmd_scenario_run)

    scenario_render = scenario_commands.add_parser(
        "render",
        help="render a recorded run (from `scenario run --out`) or "
        "run-and-render in one step",
    )
    scenario_render.add_argument(
        "--run",
        default=None,
        help="run-record JSON written by `scenario run --out`",
    )
    _scenario_exec_args(scenario_render, modes=("sim", "wire"))
    scenario_render.add_argument(
        "--html",
        default=None,
        help="also write a self-contained HTML timeline to this path",
    )
    scenario_render.set_defaults(handler=cmd_scenario_render)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # argparse signals --version / --help / bad usage via SystemExit, and
    # a handler may raise it for its own usage errors; absorb both so
    # every path *returns* an int and an unknown subcommand exits 2 just
    # like any in-command usage error.
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

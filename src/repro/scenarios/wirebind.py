"""Scenario execution on the real TCP wire runtime.

The same compiled :class:`~repro.scenarios.compile.ScenarioProgram` the
sim binding consumes is driven here against a real
:class:`~repro.net.server.NetServer` and one
:class:`~repro.net.client.NetClient` per roster entry, all inside one
asyncio loop over real localhost sockets (the in-process idiom of
``tests/net/test_net_runtime.py``).  Per-client drivers come from
:func:`repro.net.loadgen.run_scenario_worker`: ``offline`` events sever
the TCP connection abruptly while the user keeps typing into the
disconnected editor, ``online``/``join`` events (re)connect and resync
from the server's write-ahead log.

``time_scale`` compresses or stretches the compiled timeline (0.25 runs
a 4-second scenario in one wall second); event *order* and the
program's op contents are unchanged, so a wire run answers the same
question as the sim run — does the protocol converge under this editing
shape — with real sockets, session frames, and WAL resyncs in the path.

A scenario's ``chaos`` plan (a :class:`~repro.sim.faults.NetChaosPlan`)
interposes an in-process :class:`~repro.net.chaosproxy.ChaosProxy`
between the clients and the server, so byte-level faults ride under the
scenario's editing shape.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List

from repro.common.ids import SERVER_ID
from repro.net.chaosproxy import ChaosProxy
from repro.net.codec import document_signature
from repro.net.loadgen import run_scenario_worker, verdict
from repro.net.server import NetServer
from repro.obs import get_obs
from repro.scenarios.compile import compile_scenario
from repro.scenarios.dsl import Scenario
from repro.scenarios.report import LaneEvent, ScenarioRun, latency_summary

#: wall-clock head start every worker gets before scenario time zero,
#: absorbing task spawn jitter so early events are not already late.
_START_SLACK = 0.05


def run_wire_scenario(
    scenario: Scenario,
    seed: int,
    time_scale: float = 1.0,
    timeout: float = 60.0,
    host: str = "127.0.0.1",
) -> ScenarioRun:
    """Compile ``scenario`` under ``seed`` and run it over real TCP."""
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    program = compile_scenario(scenario, seed)
    total = program.total_ops

    async def _main() -> Dict[str, Any]:
        server = NetServer(host, 0, initial_text=scenario.initial_text)
        await server.start()
        proxy = None
        port = server.port
        try:
            if scenario.chaos is not None:
                proxy = ChaosProxy(host, server.port, plan=scenario.chaos, host=host)
                await proxy.start()
                port = proxy.port
            started_at = time.monotonic() + _START_SLACK
            started_wall = time.perf_counter()
            reports = await asyncio.gather(
                *(
                    run_scenario_worker(
                        host,
                        port,
                        client,
                        program.events_for(client),
                        expect_total=total,
                        initial_length=len(scenario.initial_text),
                        started_at=started_at,
                        time_scale=time_scale,
                        timeout=timeout,
                        reconnect_seed=seed * 1000 + index,
                    )
                    for index, client in enumerate(program.clients)
                )
            )
            wall = time.perf_counter() - started_wall
            server_signature = document_signature(server.server.document)
            serial = server.server.oracle.last_serial
        finally:
            if proxy is not None:
                # Let the pump tasks notice the clients' closes before the
                # abort, so teardown doesn't spray CancelledError callbacks.
                await asyncio.sleep(0.05)
                await proxy.stop()
            await server.stop()
        return {
            "reports": reports,
            "server_signature": server_signature,
            "serial": serial,
            "wall": wall,
        }

    result = asyncio.run(_main())
    reports: List[Dict[str, Any]] = result["reports"]
    outcome = verdict(
        reports, len(program.clients), {SERVER_ID: result["server_signature"]}
    )
    rtt_ms = [sample for r in reports for sample in r["rtt_ms"]]
    lanes = {
        r["client"]: [
            LaneEvent(e["at"], e["kind"], e["phase"]) for e in r["lane"]
        ]
        for r in reports
    }
    # The server's serialisation times are not directly observable from
    # outside; approximate each op's serialisation with its generation
    # time (scenario clock) — enough for the timeline's density lane.
    server_ops = sorted(
        e["at"]
        for r in reports
        for e in r["lane"]
        if e["kind"] == "op"
    )
    run = ScenarioRun(
        scenario=scenario.name,
        seed=seed,
        mode="wire",
        converged=outcome["converged"] and outcome["signatures_identical"],
        signatures=outcome["signatures"],
        total_ops=sum(r["ops"] for r in reports),
        duration=program.duration,
        wall_seconds=result["wall"],
        latency_ms=latency_summary(rtt_ms),
        latency_kind="rtt",
        lanes=lanes,
        server_ops=server_ops,
        spans=[(s.name, s.start, s.end) for s in program.spans],
        extra={
            "time_scale": time_scale,
            "serial": result["serial"],
            "reconnects": sum(r["reconnects"] for r in reports),
            "resync_on_reconnect": sum(
                r["resync_on_reconnect"] for r in reports
            ),
            "chaos": (
                scenario.chaos.to_obj() if scenario.chaos is not None else None
            ),
            "metrics": get_obs().snapshot(),
        },
    )
    return run

"""E18 — cost of re-earning the paper's network model on a lossy wire.

Section 4.4 assumes reliable exactly-once FIFO channels.  The
reliable-session layer rebuilds that abstraction over a network that
drops, duplicates and reorders frames — at the price of retransmissions
and longer convergence times.  This bench sweeps the drop rate and
measures what the session layer pays: physical frames per protocol
message, retransmissions, and simulated time to quiescence.  The
protocol-level outcome (convergence, delivered-message count) must be
unaffected at every drop rate.

Each drop rate runs twice — with the server write-ahead log off and on
(``FaultPlan(wal=...)``) — so the table also shows what durability
costs: the WAL appends one record per serialised operation, but
consumes no randomness, so the simulated schedule
(and every transport counter) must be byte-identical in both columns.
The WAL's cost is wall-clock only.
"""

import time

from repro.sim import (
    ChannelFaults,
    FaultPlan,
    SimulationRunner,
    UniformLatency,
    WorkloadConfig,
)

from benchmarks.conftest import print_banner, write_json

DROP_RATES = [0.0, 0.1, 0.2, 0.3, 0.4]


def _run(drop, wal, operations=30, seed=6):
    config = WorkloadConfig(clients=3, operations=operations, seed=seed)
    plan = FaultPlan(
        seed=seed,
        default=ChannelFaults(drop=drop, duplicate=0.1, delay=0.2),
        wal=wal,
    )
    latency = UniformLatency(0.01, 0.3, seed=seed)
    started = time.perf_counter()
    result = SimulationRunner("css", config, latency, faults=plan).run()
    return result, time.perf_counter() - started


def test_chaos_overhead_artifact(benchmark):
    def regenerate():
        rows = []
        for drop in DROP_RATES:
            off, off_wall = _run(drop, wal=False)
            on, on_wall = _run(drop, wal=True)
            assert off.converged and on.converged
            # The WAL is write-path only: it draws no randomness and
            # schedules no events, so durability must not perturb the
            # run — same schedule, same transport counters, same clock.
            assert list(on.schedule) == list(off.schedule)
            assert on.messages_delivered == off.messages_delivered
            assert on.duration == off.duration
            assert on.fault_stats.frames_sent == off.fault_stats.frames_sent
            assert on.fault_stats.wal_appends == 30
            assert off.fault_stats.wal_appends == 0
            stats = off.fault_stats
            rows.append(
                (
                    drop,
                    stats.frames_sent,
                    stats.retransmissions,
                    stats.duplicates_suppressed,
                    off.messages_delivered,
                    off.duration,
                    off_wall,
                    on_wall,
                )
            )
        return rows

    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print_banner("Session-layer overhead vs drop rate (css, 30 operations)")
    print(
        f"{'drop':>5} {'frames':>7} {'retrans':>8} {'dedup':>6} "
        f"{'delivered':>10} {'duration':>9} {'wal-off':>9} {'wal-on':>9}"
    )
    for row in rows:
        (drop, frames, retrans, dedup, delivered, duration,
         off_wall, on_wall) = row
        print(
            f"{drop:>5.1f} {frames:>7} {retrans:>8} {dedup:>6} "
            f"{delivered:>10} {duration:>8.2f}s {off_wall * 1e3:>8.1f}ms "
            f"{on_wall * 1e3:>8.1f}ms"
        )
    write_json(
        "chaos_overhead",
        [
            {
                "drop": row[0],
                "frames_sent": row[1],
                "retransmissions": row[2],
                "duplicates_suppressed": row[3],
                "messages_delivered": row[4],
                "simulated_duration": row[5],
                "wall_seconds_wal_off": row[6],
                "wall_seconds_wal_on": row[7],
            }
            for row in rows
        ],
        seed=6,
        config={
            "clients": 3,
            "operations": 30,
            "drop_rates": DROP_RATES,
            "duplicate": 0.1,
            "delay": 0.2,
        },
    )
    # Protocol-level delivery is identical at every drop rate: the session
    # layer absorbs the loss entirely.
    assert len({row[4] for row in rows}) == 1
    # Paying for it: the lossiest network needs more physical frames and
    # more retransmissions than the clean one.
    assert rows[-1][1] > rows[0][1]
    assert rows[-1][2] > rows[0][2]

"""E22 — failover latency under repeated primary kills (quorum CSS).

The replication layer's promise is that a primary crash costs *time*,
never *data*: every acknowledged operation survives into the next view
(the quorum-certified prefix), and the only client-visible effect is
the failover window while the roster elects and installs a successor.
This bench measures that window.

It runs a seeded chaos sweep over 2f+1 = 3 replicas where every fault
plan SIGKILLs the primary twice mid-run (``FaultPlan.sample_failover``);
each kill forces a view change, and the simulator records the latency
from primary loss to the new primary having quorum-committed the
adopted log.  The sweep itself must stay correct — zero acknowledged
operations lost, all replicas converged (Theorem 6.7), and the replay
cross-check (Theorem 7.1) intact — so the numbers are only reported for
runs the property harness would accept.

Two kinds of numbers land in ``BENCH_failover.json``:

* simulated failover latency percentiles (deterministic given the
  seed): detection + staggered election + log adoption + re-commit,
  under the sampled failover delays of 0.1–0.4 simulated seconds;
* the sweep's wall-clock throughput (serialised operations per second
  across all plans), which is the perf-regression guard — quorum
  commit gating sits on the serialisation hot path, so a slowdown here
  means the replication bookkeeping got more expensive.

``PERF_FLOOR_ENFORCE=1`` compares the throughput against the
``failover`` entry of ``benchmarks/perf_floor.json`` at the same 2x
safety margin the scaling floor uses — and the simulated fields against
the checked-in ``benchmarks/artifacts/BENCH_failover.json``, exactly.
The simulator drives the deployed replication rules
(:class:`repro.jupiter.replication.Replica`), so that comparison is a
refinement check: identical rules, identical numbers.  A PR that changes
one on purpose regenerates the artifact and says why.
"""

import json
import os
import time

from repro.net.loadgen import percentile
from repro.sim import WorkloadConfig
from repro.sim.fuzz import chaos_sweep

from benchmarks.conftest import print_banner, write_json

FLOOR_PATH = os.path.join(os.path.dirname(__file__), "perf_floor.json")
REFERENCE_PATH = os.path.join(
    os.path.dirname(__file__), "artifacts", "BENCH_failover.json"
)
#: functions of the seed and the replication rules alone
DETERMINISTIC = (
    "view_changes",
    "failover_sim_seconds_p50",
    "failover_sim_seconds_p90",
    "failover_sim_seconds_p99",
    "failover_sim_seconds_max",
)

PLANS = 24
REPLICAS = 3
PRIMARY_KILLS = 2
OPERATIONS = 48
SEED = 91


def _measure():
    started = time.perf_counter()
    report = chaos_sweep(
        "css",
        plans=PLANS,
        seed=SEED,
        replicas=REPLICAS,
        primary_kills=PRIMARY_KILLS,
        workload=WorkloadConfig(clients=3, operations=OPERATIONS, seed=SEED),
    )
    wall = time.perf_counter() - started
    assert report.ok, report.failures
    latencies = report.failover_latencies()
    view_changes = sum(case.view_changes for case in report.cases)
    # Every kill must have produced exactly one completed view change.
    assert view_changes == PLANS * PRIMARY_KILLS, view_changes
    assert len(latencies) == view_changes, (len(latencies), view_changes)
    return {
        "plans": PLANS,
        "replicas": REPLICAS,
        "primary_kills_per_plan": PRIMARY_KILLS,
        "operations_per_plan": OPERATIONS,
        "seed": SEED,
        "view_changes": view_changes,
        "failover_sim_seconds_p50": percentile(latencies, 0.50),
        "failover_sim_seconds_p90": percentile(latencies, 0.90),
        "failover_sim_seconds_p99": percentile(latencies, 0.99),
        "failover_sim_seconds_max": max(latencies),
        "sweep_wall_seconds": wall,
        "sweep_ops_per_sec": PLANS * OPERATIONS / wall if wall > 0 else 0.0,
    }


def test_failover_artifact(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    with open(REFERENCE_PATH) as handle:  # before write_json may replace it
        reference = json.load(handle)
    print_banner(
        "Failover latency: primary kills against a 3-replica quorum"
    )
    print(
        f"{'plans':>6} {'kills':>6} {'views':>6} {'p50':>8} {'p90':>8} "
        f"{'p99':>8} {'max':>8} {'ops/sec':>9}"
    )
    print(
        f"{result['plans']:>6} {result['primary_kills_per_plan']:>6} "
        f"{result['view_changes']:>6} "
        f"{result['failover_sim_seconds_p50']:>8.3f} "
        f"{result['failover_sim_seconds_p90']:>8.3f} "
        f"{result['failover_sim_seconds_p99']:>8.3f} "
        f"{result['failover_sim_seconds_max']:>8.3f} "
        f"{result['sweep_ops_per_sec']:>9.1f}"
    )
    path = write_json(
        "failover",
        result,
        seed=SEED,
        config={
            "plans": PLANS,
            "replicas": REPLICAS,
            "primary_kills_per_plan": PRIMARY_KILLS,
            "operations_per_plan": OPERATIONS,
        },
    )
    print(f"artifact: {path}")
    if os.environ.get("PERF_FLOOR_ENFORCE") == "1":
        with open(FLOOR_PATH) as handle:
            floor = json.load(handle)["failover"]
        assert floor["plans"] == PLANS
        assert floor["operations_per_plan"] == OPERATIONS
        minimum = floor["floor_ops_per_sec"] / 2
        assert result["sweep_ops_per_sec"] >= minimum, (
            f"failover sweep regressed: {result['sweep_ops_per_sec']:.1f} "
            f"ops/sec < {minimum:.1f} (floor {floor['floor_ops_per_sec']:.1f})"
        )
        drifted = {
            name: (reference[name], result[name])
            for name in DETERMINISTIC
            if reference[name] != result[name]
        }
        assert not drifted, (
            f"simulated failover changed against {REFERENCE_PATH}: {drifted} "
            "— a replication or simulator rule moved"
        )

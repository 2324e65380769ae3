"""The common run record both execution bindings produce.

A :class:`ScenarioRun` is everything the timeline renderer (and the
CLI's JSON output) needs: the convergence verdict, per-replica document
signatures, latency percentiles, and per-client lanes of timestamped
events.  Both :mod:`repro.scenarios.simbind` and
:mod:`repro.scenarios.wirebind` emit the same shape, which is the
dual-execution contract — a saved run renders identically regardless of
which runtime produced it.

Lane event times are in *scenario seconds* (compiled-program time), so
sim and wire runs of the same program line up column for column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.common.stats import percentile_or_zero


def latency_summary(samples_ms: List[float]) -> Dict[str, float]:
    """p50/p90/p99 of a millisecond sample list, rounded for JSON."""
    return {
        "p50": round(percentile_or_zero(samples_ms, 0.50), 3),
        "p90": round(percentile_or_zero(samples_ms, 0.90), 3),
        "p99": round(percentile_or_zero(samples_ms, 0.99), 3),
        "samples": len(samples_ms),
    }


@dataclass(frozen=True)
class LaneEvent:
    """One timestamped mark on a client's (or the server's) lane."""

    at: float
    kind: str  # "op" | "join" | "offline" | "online"
    phase: str = ""

    def to_obj(self) -> Dict[str, Any]:
        return {"at": round(self.at, 6), "kind": self.kind, "phase": self.phase}

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "LaneEvent":
        return cls(at=obj["at"], kind=obj["kind"], phase=obj.get("phase", ""))


@dataclass
class ScenarioRun:
    """One executed scenario, in renderer-ready form."""

    scenario: str
    seed: int
    mode: str  # "sim" | "wire"
    converged: bool
    signatures: Dict[str, str]
    total_ops: int
    duration: float  # scenario seconds (sim time / scaled wire time)
    wall_seconds: float
    latency_ms: Dict[str, float]
    latency_kind: str  # "propagation" (sim) | "rtt" (wire)
    lanes: Dict[str, List[LaneEvent]]
    server_ops: List[float]
    spans: List[Tuple[str, float, float]]
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def signatures_identical(self) -> bool:
        return len(set(self.signatures.values())) == 1

    def to_obj(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "mode": self.mode,
            "converged": self.converged,
            "signatures": dict(self.signatures),
            "signatures_identical": self.signatures_identical,
            "total_ops": self.total_ops,
            "duration": round(self.duration, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "latency_ms": dict(self.latency_ms),
            "latency_kind": self.latency_kind,
            "lanes": {
                client: [event.to_obj() for event in events]
                for client, events in self.lanes.items()
            },
            "server_ops": [round(t, 6) for t in self.server_ops],
            "spans": [
                {"name": name, "start": start, "end": end}
                for name, start, end in self.spans
            ],
            "extra": self.extra,
        }

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "ScenarioRun":
        return cls(
            scenario=obj["scenario"],
            seed=obj["seed"],
            mode=obj["mode"],
            converged=obj["converged"],
            signatures=dict(obj["signatures"]),
            total_ops=obj["total_ops"],
            duration=obj["duration"],
            wall_seconds=obj.get("wall_seconds", 0.0),
            latency_ms=dict(obj["latency_ms"]),
            latency_kind=obj.get("latency_kind", "propagation"),
            lanes={
                client: [LaneEvent.from_obj(e) for e in events]
                for client, events in obj["lanes"].items()
            },
            server_ops=list(obj.get("server_ops", [])),
            spans=[
                (s["name"], s["start"], s["end"]) for s in obj.get("spans", [])
            ],
            extra=dict(obj.get("extra", {})),
        )

"""``repro.net`` — the asyncio wire runtime.

Everything below :mod:`repro.sim` is simulated time on in-process
queues; this package is the first *deployed* code path.  It hosts a
:class:`~repro.jupiter.css.CssServer` behind a real TCP listener and
runs :class:`~repro.jupiter.css.CssClient`\\ s as independent OS
processes, moving protocol messages as length-prefixed, version-enveloped
frames (positional or JSON, by each frame's shape).  The stack is reused,
not forked:

* :mod:`repro.jupiter.messages` dataclasses are the payload schema
  (serialised by :mod:`repro.net.codec`);
* :mod:`repro.jupiter.session` provides seq/ack/duplicate-suppression
  semantics so a reconnecting client resumes exactly-once FIFO delivery;
* the PR-2 write-ahead log
  (:class:`~repro.jupiter.persistence.ServerWriteAheadLog`) is the
  durable broadcast buffer: a reconnecting client resyncs from it via
  :meth:`~repro.jupiter.persistence.ServerWriteAheadLog.broadcasts_for`.

The load generator (:mod:`repro.net.loadgen`) drives N client processes
against one server process and checks the paper's convergence property
(Theorem 6.7) across OS process boundaries by comparing final document
signatures.
"""

from repro._lazy import lazy_exports

#: submodule -> the public names it defines, imported on first use
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "codec": (
            "WIRE_VERSION WireError decode_envelope document_signature "
            "encode_envelope"
        ),
        "transport": (
            "MAX_FRAME OUTBOUND_QUEUE WRITE_TIMEOUT FrameSender "
            "FrameTooLarge read_frame write_frame"
        ),
        "chaosproxy": "ChaosProxy run_chaosproxy",
        "client": "NetClient ReconnectExhausted",
        "server": "NetServer",
        "loadgen": "run_loadgen run_worker",
        "fleet": (
            "FleetRouter FleetWorker WorkerRegistry place placement_map "
            "placement_skew run_fleet_loadgen run_fleet_worker run_router"
        ),
    },
)

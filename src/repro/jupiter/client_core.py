"""The client core: what a deployed CSS client decides, once, with no I/O.

A :class:`ClientCore` is the paper's CSS client — its half of
Algorithm 1 and the server-order oracle — plus the session rules around
it: the unacknowledged ops and the GC pin they hold, acks, floor
rebases, whole-state adoption, the epoch filter and the in-order release
of parked broadcasts.  It imports no ``asyncio``, no sockets and nothing
from ``repro.net``, and reads no clock; :class:`repro.net.client.NetClient`
is its asyncio shell.  Its inputs have the shape
:meth:`~repro.jupiter.shard.ShardCore.accept` takes: counters, checked
before anything changes, and a broadcast body still encoded, which
``decode(body, oracle)`` turns into the broadcast (or the echo of one of
ours) only at release — a compact context resolves against the base at
that moment.  A body is consumed only once the CSS client has taken it:
one it refuses leaves the receiver, the parked bodies and the oracle as
they were, so the honest re-ship of its seq is not a duplicate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.common.ids import SERVER_ID, ReplicaId
from repro.document.list_document import ListDocument
from repro.errors import ProtocolError
from repro.jupiter.base import GenerateResult
from repro.jupiter.css import CssClient
from repro.jupiter.messages import ClientOperation, ServerEcho, ServerOperation
from repro.jupiter.persistence import client_from_snapshot
from repro.jupiter.session import SessionReceiver, SessionSender, counter
from repro.model.schedule import OpSpec
from repro.obs import get_obs


def _floor(floor: Any) -> Optional[int]:
    return None if floor is None else counter(floor, "floor")


class ClientCore:
    """One client's replica and session rules: pure, no I/O."""

    def __init__(
        self, client_id: ReplicaId, decode: Callable[[Any, Any], Any]
    ) -> None:
        self.client_id = client_id
        self.decode = decode
        self.css = CssClient(client_id)
        self.sender = SessionSender((client_id, SERVER_ID))
        self.receiver = SessionReceiver((SERVER_ID, client_id))
        #: unacknowledged outgoing messages, seq -> ClientOperation.
        #: Each keeps the state key it was generated on — an absolute
        #: ``d`` plus the then-pending extras — so a (re)transmit reads
        #: its context off the pair, exactly, however far floors have
        #: trimmed the mirror since.
        self.unacked: Dict[int, ClientOperation] = {}
        #: per-seq ``delivered`` at generation: the lowest serial the
        #: op's context can reference
        self.gen_floors: Dict[int, int] = {}
        #: out-of-order broadcast bodies, still encoded, until released;
        #: the receiver counts a seq only when its body is taken
        self.parked: Dict[int, Any] = {}
        #: the highest epoch and view seen; ``data`` from a lower epoch
        #: is a deposed primary's
        self.epoch = 0
        self.view = 0
        #: reconnects answered by whole-state transfer (GC passed us), and
        #: broadcasts the other welcomes announced as re-shipped from the log
        self.state_transfers = 0
        self.resync_frames = 0
        #: times the server dropped us as a slow consumer, and why last
        self.evictions = 0
        self.last_eviction: Optional[str] = None
        #: our frames the server rejected with a typed ``error``
        self.op_rejections = 0
        self._obs = get_obs()

    @property
    def delivered(self) -> int:
        """Broadcasts consumed in order (the resync cursor)."""
        return self.receiver.cumulative_ack

    @property
    def pin(self) -> int:
        """The GC floor the server must hold for this client: the lowest
        generation floor of an unacknowledged op, clamped to the cursor
        so a resync always works from records."""
        if self.gen_floors:
            return min(min(self.gen_floors.values()), self.delivered)
        return self.delivered

    def converged(self, total_operations: int) -> bool:
        """All broadcasts consumed and nothing of ours still pending."""
        return (
            self.delivered >= total_operations
            and self.css.pending_count == 0
            and not self.unacked
        )

    def generate(self, spec: OpSpec) -> Tuple[int, GenerateResult]:
        """Apply one edit locally; return its c->s seq and the result.
        The op stays retransmittable until an ack covers its seq."""
        result = self.css.generate(spec)
        seq = self.sender.send()
        self.unacked[seq] = result.outgoing
        self.gen_floors[seq] = self.delivered
        return seq, result

    # ------------------------------------------------------------------
    # One call per frame the server sends
    # ------------------------------------------------------------------
    def welcome(
        self,
        view: Any,
        epoch: Any,
        ack: Any,
        floor: Any,
        resync: Any = 0,
        state: Any = None,
        initial: str = "",
        first_contact: bool = False,
    ) -> List[int]:
        """A ``welcome``: its whole-state transfer or, on first contact
        with a seeded document, its initial text; then its view, ack and
        floor.  Returns the unacked seqs to retransmit, in order."""
        view, epoch = counter(view, "view"), counter(epoch, "epoch")
        ack, floor = counter(ack, "ack"), _floor(floor)
        resync = counter(resync, "resync")
        if state is not None:
            self._adopt(state)
        elif initial and first_contact and self.sender.next_seq == 1:
            # The canonical ``from_string`` identities make the server's
            # initial text and ours byte-identical.
            self.css = CssClient(
                self.client_id, ListDocument.from_string(initial)
            )
        self.learn(epoch, view)
        self._trim(ack, floor)
        self.resync_frames += resync
        self._obs.net_resync_frames.inc(resync)
        self._obs.session_retransmits.inc(len(self.unacked))
        return sorted(self.unacked)

    def data(
        self, seq: Any, ack: Any, epoch: Any, floor: Any, body: Any
    ) -> List[Union[ServerOperation, ServerEcho]]:
        """A ``data`` frame; returns the broadcasts and echoes it released,
        applied in order — none when it parked, repeated one, or is
        stale."""
        seq, ack = counter(seq, "seq"), counter(ack, "ack")
        epoch, floor = counter(epoch, "epoch"), _floor(floor)
        if epoch < self.epoch:
            # A deposed primary's leftover broadcast: it may carry an
            # operation the view change discarded.
            self._obs.repl_stale_rejected.inc()
            return []
        if not isinstance(body, dict) or seq == 0:
            raise ProtocolError("a data frame has a seq from 1 and a body")
        applied = []
        expected = self.receiver.expected
        if seq == expected:
            # This body, then each parked successor.  A body of the wrong
            # kind is refused by the CSS client itself, before its seq is
            # counted; a refused successor stays parked.
            while body is not None:
                broadcast = self.decode(body, self.css.oracle)
                self.css.receive(broadcast)
                self.receiver.receive(seq)
                self.parked.pop(seq, None)
                applied.append(broadcast)
                seq += 1
                body = self.parked.get(seq)
        elif seq < expected or seq in self.parked:
            self._obs.session_duplicates.inc()
        else:
            self.parked[seq] = body
            self._obs.session_gap_parks.inc()
        self.epoch = epoch
        if self._obs.enabled:
            self._obs.net_parked_frames.set(len(self.parked))
        self._trim(ack, floor)
        return applied

    def ack(self, ack: Any, epoch: Any, floor: Any) -> None:
        """An ``ack`` frame: never stale — an acknowledgement only trims."""
        ack, floor = counter(ack, "ack"), _floor(floor)
        self.learn(epoch)
        self._trim(ack, floor)

    def learn(self, epoch: Any, view: Any = 0) -> None:
        """Ratchet to the newest epoch (and view) a frame names."""
        epoch, view = counter(epoch, "epoch"), counter(view, "view")
        self.epoch = max(self.epoch, epoch)
        self.view = max(self.view, view)

    def notice(self, kind: str, epoch: Any, reason: Any) -> bool:
        """Any other frame; ``True`` for an ``evicted`` (dropped as a slow
        consumer, losing nothing: the WAL re-ships, our ops retransmit)
        or an ``error`` (one of our frames rejected, the session kept)."""
        self.learn(epoch)
        if kind == "evicted":
            self.evictions += 1
            self.last_eviction = reason = str(reason)
        elif kind == "error":
            self.op_rejections += 1
            kind = "op_rejected"
        else:
            return False  # a pong, or a type this client does not know
        self._obs.trace(f"net.{kind}", client=self.client_id, reason=reason)
        return True

    # ------------------------------------------------------------------
    # The rules the frames share
    # ------------------------------------------------------------------
    def _trim(self, ack: int, floor: Optional[int]) -> None:
        """Drop the ops ``ack`` covers, then follow the server's GC floor.

        The server never advertises a floor above this client's pin, and
        a pin never passes its op's ``d``, so every unacknowledged op's
        state survives the rebase and every future broadcast decodes.
        Clamping to ``delivered`` keeps a floor that raced ahead of an
        in-flight resync from trimming serials not yet seen.
        """
        ack = min(ack, self.sender.next_seq - 1)
        self.sender.ack(ack)
        for seq in [s for s in self.unacked if s <= ack]:
            del self.unacked[seq]
            self.gen_floors.pop(seq, None)
        if self._obs.enabled:
            self._obs.net_unacked_frames.set(len(self.unacked))
        if floor is not None:
            floor = min(floor, self.delivered)
            if floor > self.css.oracle.base:
                self.css.rebase_to_serial(floor)

    def _adopt(self, state: Any) -> None:
        """Adopt a whole-state transfer, decoded whole before anything is
        replaced.  The sender resumes after ``op_seq`` — the ops of ours
        the server serialised; higher seqs were never consumed, so they
        are reused — and the receiver at ``delivered``.  Our other ops go
        with the old state; all the server acknowledged is in the
        snapshot."""
        try:
            op_seq = counter(state["op_seq"], "op_seq")
            delivered = counter(state["delivered"], "delivered")
            snapshot = state["snapshot"]
        except (LookupError, TypeError) as exc:
            raise ProtocolError(
                f"{self.client_id}: undecodable state transfer: {exc!r}"
            ) from exc
        css = client_from_snapshot(self.client_id, snapshot)
        css.restore_session(pending=[], next_seq=op_seq + 1)
        self.css = css
        self.unacked.clear()
        self.parked.clear()
        self.gen_floors.clear()
        self.sender = SessionSender((self.client_id, SERVER_ID))
        self.sender.restore({"next_seq": op_seq + 1, "acked": op_seq})
        self.receiver = SessionReceiver((SERVER_ID, self.client_id))
        self.receiver.fast_forward(delivered)
        self.state_transfers += 1
        self._obs.trace(
            "net.state_transfer",
            client=self.client_id,
            delivered=delivered,
            op_seq=op_seq,
            base=css.oracle.base,
        )

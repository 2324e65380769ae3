"""State keys as the pair the wire already speaks: ``(d, extras)``.

A state is the set of original operation ids processed (Definition 4.5).
The n-ary state-space is ordered by the server's total order, and by
Lemma 6.4 every state a CSS replica holds is *a dense serial prefix plus
the few operations in flight*.  :class:`StateKey` stores exactly that:
an absolute serial ``d`` (the state contains every serial of the active
window up to ``d``) and ``extras``, the ids the total order cannot name
yet (a client's own pending operations) or that sit past a gap.  A key
costs its concurrency, not its window.

The set is the specification and stays it: a key *is* a
:class:`collections.abc.Set` over its window members — it equals, hashes
like, iterates as and combines with the ``frozenset`` of them, so a
literal frozenset finds a key's node in a dictionary and
:class:`~repro.jupiter.reference.ReferenceStateSpace` (plain frozensets)
remains the refinement check.  Hash and equality are functions of the
*set*, not of the pair's form, which makes late serial assignment free:
a client's pending operation is an extra in the keys created while it
was pending, its echo only appends to the serial log, and ``(4, {p})``
and ``(5, {})`` are then one key — a stale form is settled in place
when next read, never re-keyed.

:class:`SerialLog` is the half the order oracles own: serial <-> id over
the active window and, per serial, the running XOR of frozenset's own
per-element hash shuffle, so a key's hash costs O(|extras|).  A
context's extras are the run its generator made just before it, so the
wire counts them (``[d, n]``) and :meth:`SerialLog.key_from_run` rebuilds
them.  Spaces with no serial log (2D, dCSS, hand-built) run with
``d = 0``: plain frozensets behind the same face.  Only this module
knows the pair's layout.
"""

from __future__ import annotations

import sys
from collections.abc import Set
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.common.ids import OpId
from repro.errors import OrderingError, ProtocolError

_MAX = sys.maxsize
_MASK = 2 * _MAX + 1
_NOTHING: FrozenSet[OpId] = frozenset()


def _shuffle(opid: OpId) -> int:
    """frozenset's per-element hash contribution (``Set._hash`` has the
    same constants); XOR-combined, so a set's hash can be kept running."""
    hx = hash(opid)
    return ((hx ^ (hx << 16) ^ 89869747) * 3644798167) & _MASK


class StateKey(Set):
    """The state ``{base + 1 .. d} | extras`` of one :class:`SerialLog`
    (``log=None``: just ``extras``)."""

    __slots__ = ("_d", "_extras", "_log", "_xh", "_hash", "_hbase")

    def __init__(
        self, d: int, extras: FrozenSet[OpId], log: Optional["SerialLog"], xh: int
    ) -> None:
        self._d, self._extras, self._log = d, extras, log
        #: XOR of the extras' shuffles (unused without a log)
        self._xh = xh
        #: the frozenset-compatible hash, valid while the log's base is
        #: ``_hbase`` (the window members change when the base moves)
        self._hash, self._hbase = 0, -1

    _from_iterable = frozenset  # what the Set mixins build results with

    # -- the pair ------------------------------------------------------
    def _settle(self) -> None:
        """Advance ``d`` over extras the log has named since (in place:
        the set, its hash and its identity are unchanged)."""
        log, extras = self._log, self._extras
        by_serial, index = log._by_serial, self._d - log._base
        if not 0 <= index < len(by_serial) or by_serial[index] not in extras:
            return
        left = set(extras)
        while index < len(by_serial) and by_serial[index] in left:
            left.discard(by_serial[index])
            self._xh ^= _shuffle(by_serial[index])
            index += 1
        self._d, self._extras = log._base + index, frozenset(left)

    def pair(self) -> Tuple[int, FrozenSet[OpId]]:
        """``(d, extras)`` — the wire form, with ``d`` maximal."""
        if self._extras and self._log is not None:
            self._settle()
        return self._d, self._extras

    def stored_ids(self) -> int:
        """How many ids this key holds in memory (not its size)."""
        return len(self._extras)

    def extend(self, opid: OpId) -> "StateKey":
        """The key of ``self | {opid}`` for an ``opid`` not in ``self``:
        O(|extras|), and O(1) when ``opid`` is the next serial.  The key
        is born settled and hashed, so a node table stores it as is."""
        log = self._log
        if log is None:
            return StateKey(0, self._extras | {opid}, None, 0)
        if self._extras:
            self._settle()
        d, extras = self._d, self._extras
        if log._serial_by_opid.get(opid) == d + 1:
            key = StateKey(d + 1, extras, log, self._xh)
            if extras:
                key._settle()
        else:
            key = StateKey(d, extras | {opid}, log, self._xh ^ _shuffle(opid))
        key._rehash(log)
        return key

    def _rehash(self, log: "SerialLog") -> int:
        """Cache the hash of this settled key under ``log``'s current
        base: frozenset's hash of its members, whose shuffles XOR to the
        dense prefix's running value and ``_xh`` — O(1)."""
        dense = self._d - log._base
        if dense < 0:
            dense = 0
        h = (
            log._mixed[dense] ^ log._mixed[0] ^ self._xh
            ^ ((dense + len(self._extras) + 1) * 1927868237)
        ) & _MASK
        h ^= (h >> 11) ^ (h >> 25)
        h = (h * 69069 + 907133923) & _MASK
        if h > _MAX:
            h -= _MASK + 1
        self._hash = 590923713 if h == -1 else h
        self._hbase = log._base
        return self._hash

    # -- the Set face --------------------------------------------------
    def __contains__(self, opid: object) -> bool:
        if opid in self._extras:
            return True
        log = self._log
        if log is None:
            return False
        serial = log._serial_by_opid.get(opid)
        return serial is not None and serial <= self._d

    def __len__(self) -> int:
        log = self._log
        dense = 0 if log is None else max(self._d - log._base, 0)
        return dense + len(self._extras)

    def __iter__(self) -> Iterator[OpId]:
        d, extras = self.pair()
        if self._log is not None:
            yield from self._log._by_serial[: max(d - self._log._base, 0)]
        yield from extras

    def __hash__(self) -> int:
        log = self._log
        if log is None:
            return hash(self._extras)
        if self._hbase != log._base:
            self.pair()
            return self._rehash(log)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is StateKey:
            if self._log is other._log:
                return self.pair() == other.pair()
            ordered = self._ordered_with(other)
            if ordered is not None:
                low, high = ordered
                return len(low) == len(high) and high._within(low)
        elif not isinstance(other, Set):
            return NotImplemented
        return len(self) == len(other) and all(m in self for m in other)

    def _ordered_with(
        self, other: "StateKey"
    ) -> Optional[Tuple["StateKey", "StateKey"]]:
        """``(lower d, higher d)`` when both keys read one total order
        (compare the pairs then, not the sets), else ``None``."""
        if self._log is None or other._log is None:
            return None
        mine, theirs = self.pair()[0], other.pair()[0]
        low, high = (self, other) if mine <= theirs else (other, self)
        return (low, high) if _one_order(low, high._log) else None

    def _within(self, other: "StateKey") -> bool:
        """``self <= other`` for two settled keys of one total order, in
        O(gap between the two ``d`` + |extras|)."""
        start = other._d - self._log._base
        gap = self._log._by_serial[start : max(self._d - self._log._base, start)]
        return (
            len(gap) <= len(other._extras)
            and all(opid in other._extras for opid in gap)
            and all(opid in other for opid in self._extras)
        )

    def __le__(self, other: object) -> bool:
        if type(other) is StateKey and self._ordered_with(other) is not None:
            return self._within(other)
        return Set.__le__(self, other)

    def __or__(self, other: Iterable[OpId]) -> "StateKey":
        key = self
        for opid in other:
            if opid not in key:
                key = key.extend(opid)
        return key

    __ror__ = __or__

    def __repr__(self) -> str:
        return f"StateKey({self._d}, {set(self._extras) or '{}'})"


class SerialLog:
    """Serial <-> id over the active window: what an order oracle owns.

    Serials ``base + 1 .. last_serial`` are dense; ``base`` is the trim
    floor (:meth:`trim_below`), at and below which nothing can be named.
    ``start`` seats a log past a prefix it never saw (a server restored
    from a checkpoint cut after active-window GC).
    """

    def __init__(self, start: int = 0) -> None:
        self._base = int(start)
        # index i holds serial base + i + 1
        self._by_serial: List[OpId] = []
        self._serial_by_opid: Dict[OpId, int] = {}
        # index i holds the XOR of the shuffles of every serial appended
        # up to base + i, so two entries XOR to a serial range's
        self._mixed: List[int] = [0]
        # index i: the run of one generator's consecutive seqs ending there
        self._runs: List[int] = []

    @property
    def base(self) -> int:
        """Serial floor of the active window (0 = nothing trimmed)."""
        return self._base

    @property
    def last_serial(self) -> int:
        """The highest serial in the log (``base`` before the first)."""
        return self._base + len(self._by_serial)

    def _append(self, opid: OpId) -> int:
        last = self._by_serial[-1] if self._by_serial else opid
        chained = last.seq + 1 == opid.seq and last.replica == opid.replica
        self._runs.append(self._runs[-1] + 1 if chained else 1)
        self._by_serial.append(opid)
        self._serial_by_opid[opid] = serial = self.last_serial
        self._mixed.append(self._mixed[-1] ^ _shuffle(opid))
        return serial

    def serial_of(self, opid: OpId) -> Optional[int]:
        return self._serial_by_opid.get(opid)

    def serial_items(self, after: int = 0) -> List[Tuple[OpId, int]]:
        """Every (opid, serial) pair with serial > ``after``, by serial.

        The public seam snapshots read instead of the internal mapping.
        The log is append-only in serial order, so the canonical
        (byte-identical JSON) order is a slice, not a sort.
        """
        low = max(int(after), self._base)
        window = self._by_serial[low - self._base :]
        return list(zip(window, range(low + 1, low + 1 + len(window))))

    def _check_window(self, low: int, high: int) -> None:
        if not self._base <= low <= high <= self.last_serial:
            raise OrderingError(
                f"serials ({low}, {high}] outside the retained window "
                f"({self._base}..{self.last_serial})"
            )

    def opid_of(self, serial: int) -> OpId:
        """The operation serialised at ``serial`` (must be retained)."""
        self._check_window(serial - 1, serial)
        return self._by_serial[serial - 1 - self._base]

    def opids_between(self, low: int, high: int) -> FrozenSet[OpId]:
        """Ids of the operations serialised in ``(low, high]``."""
        if high <= low:
            return _NOTHING
        self._check_window(low, high)
        return frozenset(self._by_serial[low - self._base : high - self._base])

    def trim_below(self, serial: int) -> None:
        """Move the window floor up to ``serial`` (acked-prefix GC).

        The trimmed prefix leaves both mappings outright, so memory —
        and cyclic-GC pause times — track the active window, not total
        history.  Keys are untouched: ``d`` is absolute, a key's window
        members are simply fewer afterwards.  Nothing may ask below the
        floor: every retained WAL record's context floor is at or above
        it (the GC fixpoint) and so is every surviving state's ``d``.
        """
        drop = serial - self._base
        if drop <= 0:
            return
        if self._by_serial:  # an empty log simply starts there
            self._check_window(self._base, serial)
        for opid in self._by_serial[:drop]:
            del self._serial_by_opid[opid]
        del self._by_serial[:drop]
        del self._runs[:drop]
        del self._mixed[: len(self._mixed) - 1 - len(self._by_serial)]
        self._base = serial

    # -- the keys this log can name -----------------------------------
    def key_from_pair(self, d: int, extras: Iterable[OpId]) -> StateKey:
        """The state ``{base + 1 .. d} | extras`` of this log."""
        self._check_window(d, d)
        known, kept, xh = self._serial_by_opid, [], 0
        for opid in frozenset(extras):
            if known.get(opid, sys.maxsize) > d:
                kept.append(opid)
                xh ^= _shuffle(opid)
        key = StateKey(d, frozenset(kept), self, xh)
        key.pair()
        return key

    def key_from_run(self, d: int, n: int, opid: OpId) -> StateKey:
        """The state the wire pair ``[d, n]`` of ``opid`` names: the serials
        up to ``d`` and the ``n`` operations its generator made just before
        it.  O(1) when that run fills serials ``d + 1 .. d + n``, else
        :meth:`key_from_pair` over it; a peer's count is refused before
        anything O(n) is built, and its run must be serialised past ``d``
        in order."""
        last = self.last_serial
        if not self._base <= d <= last:
            raise ProtocolError(
                f"context floor {d} is outside the window {self._base}..{last}"
            )
        if n > last - d or n >= opid.seq:
            raise ProtocolError(
                f"{opid} cannot follow a run of {n} past serial {d} of {last}"
            )
        if not n:
            return self.dense(d)
        known, replica, seq = self._serial_by_opid, opid.replica, opid.seq
        top = known.get(OpId(replica, seq - 1))
        if top == d + n and self._runs[top - self._base - 1] >= n:
            return self.dense(top)
        run = [OpId(replica, each) for each in range(seq - n, seq)]
        serials = [d] + [known.get(member, 0) for member in run]
        if any(low >= high for low, high in zip(serials, serials[1:])):
            raise ProtocolError(
                f"the run before {opid} is not serialised past {d} in order"
            )
        return self.key_from_pair(d, run)

    def dense(self, d: int) -> StateKey:
        """The state ``{base + 1 .. d}``: O(1), nothing materialised."""
        return self.key_from_pair(d, ())


def run_length(extras: FrozenSet[OpId], opid: OpId) -> int:
    """``len(extras)``, once checked to be the run ``[d, n]`` names: the
    operations ``opid``'s generator made just before it."""
    low = opid.seq - len(extras)
    for extra in extras:
        if extra.replica != opid.replica or not low <= extra.seq < opid.seq:
            raise ProtocolError(
                f"context extras {sorted(extras)} are not the run before {opid}"
            )
    return len(extras)


def _one_order(key: StateKey, log: SerialLog) -> bool:
    """Whether ``key``'s dense prefix is the same set under ``log``: the
    same window floor and the same running hash at ``d``."""
    mine, offset = key._log, key._d - log._base
    return (
        mine._base == log._base
        and 0 <= offset < len(log._mixed)
        and mine._mixed[offset] ^ mine._mixed[0]
        == log._mixed[offset] ^ log._mixed[0]
    )


def key_of(log: Optional[SerialLog], members: Iterable[OpId]) -> StateKey:
    """The key of any set of window members under ``log`` (``None``: a
    space with no serial log) — O(members), or O(|extras|) for a key of
    ``log`` or of another replica's log of the same total order, whose
    pair reads the same against this one."""
    if type(members) is StateKey:
        if members._log is log:
            return members
        if log is not None and members._log is not None:
            d, extras = members.pair()
            if _one_order(members, log):
                return log.key_from_pair(d, extras)
    if log is None:
        return StateKey(0, frozenset(members), None, 0)
    return log.key_from_pair(log._base, members)


def run_pair(
    log: Optional[SerialLog], members: Iterable[OpId], opid: OpId
) -> List[int]:
    """``[d, n]``, the one spelling of ``opid``'s context ``members``
    under ``log``, on the wire and on disk: its key's ``d`` and its
    extras counted by :func:`run_length`."""
    d, extras = key_of(log, members).pair()
    return [d, run_length(extras, opid)]

"""In-process end-to-end tests for replicated-server failover.

Three real :class:`~repro.net.server.NetServer` replicas listen on
localhost ports and replicate the write-ahead log over actual TCP;
clients carry the roster and fail over when the primary dies.  One
event loop keeps the tests deterministic while the frames still cross
sockets.
"""

import asyncio
import socket
import struct

import pytest

from repro.model.schedule import OpSpec
from repro.net.client import NetClient, ReconnectExhausted
from repro.net.codec import (
    document_signature,
    encode_envelope,
    encode_frame_bytes,
)
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame


def _run(coroutine):
    return asyncio.run(coroutine)


def _reserve_ports(count):
    """Ephemeral ports for a roster that must be known before binding."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


async def _started_roster(count=3, failover_delay=0.3, **kwargs):
    ports = _reserve_ports(count)
    roster = [("127.0.0.1", port) for port in ports]
    servers = [
        NetServer(
            "127.0.0.1",
            port,
            roster=roster,
            replica_index=index,
            failover_delay=failover_delay,
            **kwargs,
        )
        for index, port in enumerate(ports)
    ]
    # Backups first: the view-0 primary's initial repl_install then
    # succeeds on the first dial, before any client registers — the
    # deployment ordering, and the one the registration regression test
    # below depends on (the install must carry an empty client list).
    for server in servers[1:]:
        await server.start()
    await servers[0].start()
    async def _feeds_up():
        while any(s._primary_feed is None for s in servers[1:]):
            await asyncio.sleep(0.01)

    await asyncio.wait_for(_feeds_up(), timeout=10)
    return servers, roster


async def _stop_all(servers, clients=()):
    for client in clients:
        await client.close()
    for server in servers:
        await server.stop()


def _current_primary(servers):
    primaries = [s for s in servers if s.is_primary]
    assert len(primaries) == 1, [s.replica_id for s in primaries]
    return primaries[0]


class TestRedirect:
    def test_backup_redirects_a_client_to_the_primary(self):
        async def scenario():
            servers, roster = await _started_roster()
            # Dial a backup directly: it must bounce us to the primary.
            c1 = NetClient("c1", *roster[1], roster=roster)
            await c1.connect()
            await c1.generate(OpSpec("ins", 0, "a"))
            assert await c1.wait_converged(1, timeout=15)
            redirects = c1.redirects
            primary = _current_primary(servers)
            same = c1.signature() == document_signature(
                primary.server.document
            )
            await _stop_all(servers, [c1])
            return redirects, same

        redirects, same = _run(scenario())
        assert redirects >= 1
        assert same

    def test_welcome_carries_the_roster(self):
        async def scenario():
            servers, roster = await _started_roster()
            # The client only knows the primary's address; the welcome
            # hands it the full roster for later failover.
            c1 = NetClient("c1", *roster[0])
            await c1.connect()
            learned = c1.roster
            await _stop_all(servers, [c1])
            return learned, roster

        learned, roster = _run(scenario())
        assert learned == roster


class TestCommitGating:
    def test_replicated_acks_wait_for_quorum_but_still_flow(self):
        async def scenario():
            servers, roster = await _started_roster()
            c1 = NetClient("c1", *roster[0], roster=roster)
            c2 = NetClient("c2", *roster[0], roster=roster)
            await c1.connect()
            await c2.connect()
            for index in range(4):
                await c1.generate(OpSpec("ins", index, "a"))
                await c2.generate(OpSpec("ins", 0, "b"))
            done = await asyncio.gather(
                c1.wait_converged(8, timeout=15),
                c2.wait_converged(8, timeout=15),
            )
            primary = _current_primary(servers)
            committed = primary.committed
            backups_hold = [
                s.wal.last_serial for s in servers if s is not primary
            ]
            signatures = {
                c1.signature(),
                c2.signature(),
                document_signature(primary.server.document),
            }
            await _stop_all(servers, [c1, c2])
            return done, committed, backups_hold, signatures

        done, committed, backups_hold, signatures = _run(scenario())
        assert done == [True, True]
        assert committed == 8  # every acked op is quorum-certified
        # At least a quorum's worth of backups hold the full log.
        assert any(held == 8 for held in backups_hold)
        assert len(signatures) == 1


class TestPrimaryKill:
    def test_clients_fail_over_and_lose_nothing(self):
        """The client-registration regression: ops that are unacked at
        kill time must survive into the new view.

        No compaction-triggered reinstall ships the primary's client list
        (a checkpoint runs only at a GC rebase, and the backups keep
        up with the records past it) — the backups must learn
        each origin from the replicated records themselves, or the
        promoted primary builds no session channels and the retransmits
        park forever as an unfillable gap."""

        async def scenario():
            servers, roster = await _started_roster(
                failover_delay=0.3
            )
            c1 = NetClient("c1", *roster[0], roster=roster)
            c2 = NetClient("c2", *roster[0], roster=roster)
            await c1.connect()
            await c2.connect()
            for index in range(3):
                await c1.generate(OpSpec("ins", index, "a"))
                await c2.generate(OpSpec("ins", 0, "b"))
            done = await asyncio.gather(
                c1.wait_converged(6, timeout=15),
                c2.wait_converged(6, timeout=15),
            )
            assert done == [True, True]

            # SIGKILL stand-in: the primary vanishes mid-session.
            await servers[0].stop()
            # New operations while the roster is electing: they sit
            # unacknowledged and must be retransmitted to the successor.
            for index in range(2):
                await c1.generate(OpSpec("ins", 0, "x"))
                await c2.generate(OpSpec("del", 0))
            done = await asyncio.gather(
                c1.wait_converged(10, timeout=30),
                c2.wait_converged(10, timeout=30),
            )
            survivors = servers[1:]
            primary = _current_primary(survivors)
            state = {
                "done": done,
                "view": primary.view,
                "view_changes": primary.view_changes,
                "serial": primary.wal.last_serial,
                "signatures": {
                    c1.signature(),
                    c2.signature(),
                    document_signature(primary.server.document),
                },
                "client_views": (c1.view, c2.view),
            }
            await _stop_all(survivors, [c1, c2])
            return state

        state = _run(scenario())
        assert state["done"] == [True, True]
        assert state["view"] >= 1
        assert state["view_changes"] >= 1
        assert state["serial"] == 10  # dense serials survived the crash
        assert len(state["signatures"]) == 1
        # Both clients observed the new view's epoch.
        assert all(view >= 1 for view in state["client_views"])

    def test_client_joining_mid_outage_reaches_the_new_primary(self):
        async def scenario():
            servers, roster = await _started_roster(failover_delay=0.2)
            c1 = NetClient("c1", *roster[0], roster=roster)
            await c1.connect()
            await c1.generate(OpSpec("ins", 0, "a"))
            assert await c1.wait_converged(1, timeout=15)
            await servers[0].stop()

            # A fresh client whose roster still names the dead replica
            # first: the dial fails, the roster walk finds the successor.
            c2 = NetClient("c2", *roster[0], roster=roster)
            await c2.connect()
            await c2.generate(OpSpec("ins", 0, "b"))
            done = await asyncio.gather(
                c1.wait_converged(2, timeout=30),
                c2.wait_converged(2, timeout=30),
            )
            survivors = servers[1:]
            primary = _current_primary(survivors)
            signatures = {
                c1.signature(),
                c2.signature(),
                document_signature(primary.server.document),
            }
            await _stop_all(survivors, [c1, c2])
            return done, signatures

        done, signatures = _run(scenario())
        assert done == [True, True]
        assert len(signatures) == 1


class TestReconnectBudget:
    def test_dead_roster_exhausts_the_dial_budget(self):
        async def scenario():
            ports = _reserve_ports(3)  # reserved, then released: nobody listens
            roster = [("127.0.0.1", port) for port in ports]
            c1 = NetClient(
                "c1", *roster[0], roster=roster, max_connect_attempts=3
            )
            with pytest.raises(ReconnectExhausted):
                await c1.connect()
            return c1.connects

        assert _run(scenario()) == 0

    def test_wait_converged_respects_max_reconnect_attempts(self):
        async def scenario():
            server = NetServer("127.0.0.1", 0)
            await server.start()
            c1 = NetClient(
                "c1", "127.0.0.1", server.port, max_reconnect_attempts=0
            )
            await c1.connect()
            await c1.generate(OpSpec("ins", 0, "a"))
            assert await c1.wait_converged(1, timeout=15)
            await server.stop()
            await c1.generate(OpSpec("ins", 1, "b"))
            # The link is gone and the budget is zero: the wait must
            # surface a clean terminal error, not spin to the timeout.
            with pytest.raises(ReconnectExhausted):
                await c1.wait_converged(2, timeout=10)
            await c1.close()
            return c1.reconnect_cycles

        assert _run(scenario()) == 1


class TestStaleEpochFilter:
    def test_data_from_a_deposed_primary_is_dropped(self):
        # Pure frame-level check: a client that has seen epoch 1 must
        # ignore a data frame a deposed view-0 primary still had in
        # flight — it may carry an operation the view change discarded.
        client = NetClient("c1", "127.0.0.1", 1)
        client.epoch = 1
        client._handle_frame(
            {"type": "data", "epoch": 0, "seq": 1, "ack": 0, "body": None}
        )
        assert client.delivered == 0  # never reached the session layer

    def test_newer_epoch_is_adopted(self):
        client = NetClient("c1", "127.0.0.1", 1)
        client._handle_frame({"type": "ack", "epoch": 3, "ack": 0})
        assert client.epoch == 3


async def _until(condition, timeout=10):
    async def poll():
        while not condition():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout=timeout)


class TestDeposedByInstall:
    def test_a_spuriously_deposed_primary_stops_serving(self):
        """A backup's failure detector misfires while the primary lives.

        The old primary learns of view 1 from the successor's seek and
        install, not from a ``repl_deny``.  It used to turn "backup" yet
        keep its shipping tasks and its client session, serialise the
        client's next op onto the installed log and install *that* on
        the view-1 primary — which took an install for its own view."""

        async def scenario():
            servers, roster = await _started_roster(failover_delay=5.0)
            s0, s1, s2 = servers
            c1 = NetClient("c1", *roster[0], roster=roster)
            await c1.connect()
            for index in range(3):
                await c1.generate(OpSpec("ins", index, "a"))
            assert await c1.wait_converged(3, timeout=15)

            # s1 alone loses its feed and does not wait its turn out.
            s1.failover_delay = 0.05
            s1._primary_feed.close()
            await _until(lambda: s1.is_primary and s0.view == s2.view == 1)
            old_primary = {
                "is_primary": s0.is_primary,
                "shipping": sum(not t.done() for t in s0._backup_tasks.values()),
                "sessions": sum(c.writer is not None for c in s0.channels.values()),
            }
            await c1.generate(OpSpec("ins", 3, "b"))
            converged = await c1.wait_converged(4, timeout=15)
            await _until(lambda: all(s.wal.last_serial == 4 for s in servers))
            state = {
                "old_primary": old_primary,
                "converged": converged,
                "redirects": c1.redirects,
                "served": s1.server.oracle.last_serial,
                "logged": s1.wal.last_serial,
                "committed": s1.committed,
                "signatures": {
                    c1.signature(),
                    document_signature(s1.server.document),
                    *(document_signature(s.wal.recover().document) for s in servers),
                },
            }
            await _stop_all(servers, [c1])
            return state

        state = _run(scenario())
        assert state["old_primary"] == {
            "is_primary": False,
            "shipping": 0,
            "sessions": 0,
        }
        assert state["converged"]
        assert state["redirects"] >= 1
        assert state["served"] == state["logged"] == state["committed"] == 4
        assert len(state["signatures"]) == 1

    def test_a_frame_buffered_behind_the_hang_up_is_not_served(self):
        """Hanging up closes the connection; bytes can still land behind it.

        A client op that reached the old primary's read buffer just
        before a ``repl_install`` deposed it used to be read back after
        the hang-up and serialised — by the stale served state, onto the
        log the install had just handed over, under the new epoch — so
        the real primary's ship of that serial looked like a duplicate
        and one quorum copy diverged.  The frame here lands on the
        session's connection right behind the hang-up."""

        async def scenario():
            servers, roster = await _started_roster(failover_delay=5.0)
            s0, s1, _s2 = servers
            links = {}
            serve, depose = s0._handle_session, s0._depose

            async def remember_the_link(hello, link):
                links[hello["client"]] = link
                await serve(hello, link)

            s0._handle_session = remember_the_link
            c1 = NetClient("c1", *roster[0], roster=roster)
            await c1.connect()
            for index in range(3):
                await c1.generate(OpSpec("ins", index, "a"))
            assert await c1.wait_converged(3, timeout=15)
            await _until(lambda: s1.wal.last_serial == 3)

            # The client's 4th op, framed as it would put it on the wire ...
            writer, c1._writer = c1._writer, None
            await c1.generate(OpSpec("ins", 3, "b"))
            c1._writer = writer
            body = encode_frame_bytes(c1._data_envelope(4))

            def depose_with_a_frame_in_the_buffer():
                depose()
                links["c1"].data_received(struct.pack(">I", len(body)) + body)

            # ... lands as view 1's install (s1 leads it) deposes s0.
            s0._depose = depose_with_a_frame_in_the_buffer
            reader, writer = await asyncio.open_connection(*roster[0])
            installed = s1.wal.to_obj()
            await write_frame(
                writer,
                encode_envelope(
                    "repl_install", view=1, epoch=1, committed=3, log=installed
                ),
            )
            answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            await asyncio.sleep(0.1)
            state = {
                "answer": (answer["type"], answer["serial"], answer["epoch"]),
                "is_primary": s0.is_primary,
                "sessions": sum(c.writer is not None for c in s0.channels.values()),
                "log": s0.wal.to_obj() == installed,
                "logged": s0.wal.last_serial,
                "served": s0.server.oracle.last_serial,
                "committed": s0.committed,
            }
            writer.close()
            await _stop_all(servers, [c1])
            return state

        assert _run(scenario()) == {
            "answer": ("repl_ack", 3, 1),
            "is_primary": False,
            "sessions": 0,
            "log": True,
            "logged": 3,
            "served": 3,
            "committed": 3,
        }


class TestDeposedByDeny:
    def test_a_denied_primary_stands_down_and_the_roster_heals(self):
        """A backup that promised a higher view denies the primary's next
        ship; the primary stands down on the ``repl_deny`` (the route the
        old code did handle), and although the promised candidate never
        shows up the next election still finds a quorum."""

        async def scenario():
            servers, roster = await _started_roster(failover_delay=0.1)
            s0, _s1, s2 = servers
            c1 = NetClient("c1", *roster[0], roster=roster)
            await c1.connect()
            assert s2._replica.seek(1).accepted  # a candidate that then died
            await c1.generate(OpSpec("ins", 0, "a"))
            await _until(lambda: not s0.is_primary)
            stood_down = (s0.view, sum(not t.done() for t in s0._backup_tasks.values()))
            converged = await c1.wait_converged(1, timeout=20)
            primary = _current_primary(servers)
            state = {
                "stood_down": stood_down,
                "converged": converged,
                "view": primary.view,
                "same": c1.signature() == document_signature(primary.server.document),
            }
            await _stop_all(servers, [c1])
            return state

        state = _run(scenario())
        assert state["stood_down"] == (1, 0)
        assert state["converged"] and state["same"]
        assert state["view"] > 1


class TestDeposedByPromise:
    def test_no_redirect_to_itself_and_a_failover_of_its_own(self):
        """A primary that offered its log to a candidate stops leading,
        but view 0 — its own — is still the highest it knows: a
        ``redirect`` would name itself.  It hangs up instead, and because
        the candidate may die before it installs anything, it arms the
        failover watch like any backup that lost its feed."""

        async def scenario():
            servers, roster = await _started_roster(failover_delay=0.2)
            s0 = servers[0]
            reader, writer = await asyncio.open_connection(*roster[0])
            await write_frame(writer, encode_envelope("repl_seek", view=1))
            offer = await asyncio.wait_for(read_frame(reader), timeout=5)
            writer.close()  # ... and the candidate is never heard of again
            deposed = (offer["type"], s0.is_primary, s0.view)
            armed = s0._failover_task is not None and not s0._failover_task.done()

            reader, writer = await asyncio.open_connection(*roster[0])
            await write_frame(
                writer, encode_envelope("hello", client="c9")
            )
            answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            writer.close()

            c1 = NetClient("c1", *roster[0], roster=roster)
            await c1.connect()
            await c1.generate(OpSpec("ins", 0, "a"))
            converged = await c1.wait_converged(1, timeout=20)
            state = {
                "deposed": deposed,
                "armed": armed,
                "answer": answer,
                "converged": converged,
                "view": _current_primary(servers).view,
            }
            await _stop_all(servers, [c1])
            return state

        state = _run(scenario())
        assert state["deposed"] == ("repl_offer", False, 0)
        assert state["armed"]
        assert state["answer"] is None  # hung up on, not sent back here
        assert state["converged"] and state["view"] > 1


def _raw_record(serial):
    return {
        "serial": serial,
        "origin": "c1",
        "epoch": 0,
        "operation": {"opid": ["c1", serial]},
    }


MALFORMED_REPL_FRAMES = {
    "install-undecodable-log": dict(
        kind="repl_install", view=99, epoch=99, committed=0, log={"version": 0}
    ),
    "install-truncated-log": dict(
        kind="repl_install", view=99, epoch=99, committed=0,
        log={"version": 2, "replica": "s", "clients": []},
    ),
    "install-non-integer-view": dict(
        kind="repl_install", view="99", epoch="99", committed=0, log=None
    ),
    "append-without-a-record": dict(kind="repl_append", epoch=0, committed=0),
    "append-non-integer-serial": dict(
        kind="repl_append", epoch=0, committed=0,
        record={**_raw_record(2), "serial": "two"},
    ),
    "append-serial-gap": dict(
        kind="repl_append", epoch=0, committed=0, record=_raw_record(7)
    ),
    "seek-non-integer-view": dict(kind="repl_seek", view=None),
}


class TestMalformedReplicationFrames:
    @pytest.mark.parametrize("shape", sorted(MALFORMED_REPL_FRAMES))
    def test_a_malformed_frame_is_refused_typed_and_changes_nothing(self, shape):
        """Replication frames are validated before anything changes.

        ``_install_log`` used to claim the frame's view *before* decoding
        its log (one bad ``view: 99`` install deposed a healthy primary),
        and the other shapes escaped as asyncio's "Unhandled exception in
        client_connected_cb".  The refusal is a closed connection, not a
        ``repl_deny``: a deny would depose whoever sent the frame."""
        fields = dict(MALFORMED_REPL_FRAMES[shape])

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context)
            )
            servers, roster = await _started_roster(failover_delay=0.3)
            s0, s1, _s2 = servers
            c1 = NetClient("c1", *roster[0], roster=roster)
            await c1.connect()
            await c1.generate(OpSpec("ins", 0, "a"))
            assert await c1.wait_converged(1, timeout=15)
            await _until(lambda: s1.wal.last_serial == 1)

            def backup_state():
                return (
                    s1.view, s1.epoch, s1.committed, s1.is_primary,
                    s1.wal.last_serial, s1._primary_feed,
                )

            before = backup_state()
            reader, writer = await asyncio.open_connection(*roster[1])
            await write_frame(
                writer, encode_envelope(fields.pop("kind"), **fields)
            )
            answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            writer.close()
            after = backup_state()

            await c1.generate(OpSpec("ins", 1, "b"))
            still_commits = await c1.wait_converged(2, timeout=6)
            state = {
                "answer": answer,
                "unchanged": after == before,
                "primary": _current_primary(servers).replica_id,
                "still_commits": still_commits,
                "unhandled": unhandled,
            }
            await _stop_all(servers, [c1])
            return state

        state = _run(scenario())
        assert state["answer"] is None  # hung up on, not denied
        assert state["unchanged"]
        assert state["primary"] == "s0"
        assert state["still_commits"]
        assert state["unhandled"] == []

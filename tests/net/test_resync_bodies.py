"""A resync re-ships what the live broadcast shipped, byte for byte.

Live, a reader is sent the form ``o{L}`` an operation executed as at the
server; a reconnect re-ships each missed serial ``s`` as the leftmost
transition from the server's state of every serial before it (Lemma
6.4).  Two writers edit concurrently, so the executed forms are not the
originals, and a recording reader keeps every live body.  A fresh
session then says hello with a cursor inside the window, and each body
it is re-shipped must be the live one: on a standalone server, on one
restarted from its WAL file, and on the primary a failover promoted.  A
cursor below the space base still gets the whole-state transfer.
"""

import asyncio

from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import (
    document_signature,
    encode_envelope,
    encode_frame_bytes,
)
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame

from tests.net.test_failover import _current_primary, _started_roster, _until

CURSOR = 2
ROUNDS = 4


class Recorder(NetClient):
    """A reader that keeps every ``server_op`` body it is sent, by seq."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.live = {}

    def _handle_frame(self, frame):
        members = frame.get("frames") if frame.get("type") == "multi" else [frame]
        for member in members or ():
            body = member.get("body") if isinstance(member, dict) else None
            if isinstance(body, dict) and body.get("kind") == "server_op":
                self.live[member["seq"]] = body
        super()._handle_frame(frame)


def spelled(serial, body):
    """A body's bytes, in a data frame whose counters are fixed."""
    return encode_frame_bytes(
        encode_envelope("data", seq=serial, ack=0, epoch=0, floor=0, body=body)
    )


async def edit_concurrently(writers, clients):
    """Each round the second writer types offline while the first's ops
    are serialised, so its ops are concurrent with them and execute at
    the server transformed."""
    first, second = writers
    total = 0
    for round_ in range(ROUNDS):
        await second.drop()
        for value in "ab":  # at the front, under the second's feet
            await first.generate(OpSpec("ins", 0, value + str(round_)))
        for value in "xy":  # at the end, which the first's ops move
            end = len(second.css.document)
            await second.generate(OpSpec("ins", end, value + str(round_)))
        total += 4
        await second.connect()  # its two ops retransmit
        done = await asyncio.gather(
            *(client.wait_converged(total, timeout=15) for client in clients)
        )
        assert all(done)
    return total


async def hello(host, port, cursor, name="late"):
    """A fresh session's hello at ``cursor``: its welcome and the bodies
    re-shipped to it, by seq."""
    reader, writer = await asyncio.open_connection(host, port)
    await write_frame(
        writer,
        encode_envelope(
            "hello", client=name, delivered=cursor, epoch=0, doc="",
            pin=cursor,
        ),
    )
    welcome, bodies = None, {}
    while welcome is None or len(bodies) < welcome["resync"]:
        frame = await asyncio.wait_for(read_frame(reader), timeout=10)
        frames = frame["frames"] if frame["type"] == "multi" else [frame]
        for member in frames:
            if member["type"] == "welcome":
                welcome = member
            elif member["type"] == "data":
                bodies[member["seq"]] = member["body"]
    writer.close()
    return welcome, bodies


def assert_the_live_bodies(live, bodies, last):
    assert sorted(bodies) == list(range(CURSOR + 1, last + 1))
    for serial, body in bodies.items():
        assert spelled(serial, body) == spelled(serial, live[serial])


def moved(live, writers_log):
    """How many live bodies carry a position other than the original's:
    the executed forms are not the originals, or the test proves nothing."""
    return sum(
        live[serial]["body"]["operation"]["position"] != position
        for serial, position in writers_log.items()
    )


async def run_standalone(**server_options):
    server = NetServer("127.0.0.1", 0, gc_threshold=10**9, **server_options)
    await server.start()
    writers = [NetClient(n, "127.0.0.1", server.port) for n in ("w1", "w2")]
    reader = Recorder("r", "127.0.0.1", server.port)
    clients = writers + [reader]
    for client in clients:
        await client.connect()
    total = await edit_concurrently(writers, clients)
    positions = {
        record["serial"]: record["operation"]["position"]
        for record in server.wal.records
    }
    return server, clients, reader.live, total, positions


def test_a_standalone_server_re_ships_the_live_bodies():
    async def scenario():
        server, clients, live, total, positions = await run_standalone()
        welcome, bodies = await hello("127.0.0.1", server.port, CURSOR)
        for client in clients:
            await client.close()
        await server.stop()
        return welcome, bodies, live, total, positions

    welcome, bodies, live, total, positions = asyncio.run(scenario())
    assert "state" not in welcome and welcome["resync"] == total - CURSOR
    assert moved(live, positions)
    assert_the_live_bodies(live, bodies, total)


def test_a_server_restarted_from_its_wal_file_re_ships_the_live_bodies(
    tmp_path,
):
    async def scenario():
        server, clients, live, total, _ = await run_standalone(
            wal_dir=str(tmp_path)
        )
        for client in clients:
            await client.close()
        await server.stop()
        restarted = NetServer(
            "127.0.0.1", 0, gc_threshold=10**9, wal_dir=str(tmp_path)
        )
        await restarted.start()
        welcome, bodies = await hello("127.0.0.1", restarted.port, CURSOR)
        await restarted.stop()
        return welcome, bodies, live, total

    welcome, bodies, live, total = asyncio.run(scenario())
    assert welcome["resync"] == total - CURSOR
    assert_the_live_bodies(live, bodies, total)


def test_the_primary_a_failover_promoted_re_ships_the_live_bodies():
    async def scenario():
        servers, roster = await _started_roster(
            failover_delay=0.3, gc_threshold=10**9
        )
        writers = [NetClient(n, *roster[0], roster=roster) for n in ("w1", "w2")]
        reader = Recorder("r", *roster[0], roster=roster)
        clients = writers + [reader]
        for client in clients:
            await client.connect()
        total = await edit_concurrently(writers, clients)
        await servers[0].stop()  # the primary vanishes
        survivors = servers[1:]
        await _until(lambda: sum(s.is_primary for s in survivors) == 1)
        primary = _current_primary(survivors)
        await _until(lambda: primary.committed >= total)
        welcome, bodies = await hello(*roster[primary.replica_index], CURSOR)
        for client in clients:
            await client.close()
        for server in survivors:
            await server.stop()
        return welcome, bodies, reader.live, total, primary.view

    welcome, bodies, live, total, view = asyncio.run(scenario())
    assert view >= 1 and welcome["resync"] == total - CURSOR
    assert_the_live_bodies(live, bodies, total)


def test_a_cursor_below_the_base_gets_the_whole_state():
    async def scenario():
        server = NetServer("127.0.0.1", 0, gc_threshold=1, gc_interval=0.05)
        await server.start()
        writers = [NetClient(n, "127.0.0.1", server.port) for n in ("w1", "w2")]
        reader = NetClient("r", "127.0.0.1", server.port)
        clients = writers + [reader]
        for client in clients:
            await client.connect()
        total = await edit_concurrently(writers, clients)
        await reader.ping()  # the idle reader's pin catches up
        await _until(lambda: server.server.base > CURSOR)
        welcome, bodies = await hello("127.0.0.1", server.port, CURSOR)
        signature = document_signature(server.server.document)
        for client in clients:
            await client.close()
        await server.stop()
        return welcome, bodies, total, signature

    welcome, bodies, total, signature = asyncio.run(scenario())
    assert bodies == {} and welcome["resync"] == 0
    state = welcome["state"]
    assert (state["delivered"], state["op_seq"]) == (total, 0)
    late = NetClient("late")
    late.welcome(0, 0, 0, welcome["floor"], state=state)
    assert late.signature() == signature and late.delivered == total

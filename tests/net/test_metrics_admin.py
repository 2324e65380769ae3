"""The ``metrics`` admin-plane command on a live ``NetServer``.

An in-process server on an ephemeral port, real TCP sockets, one event
loop: the scrape path the ``repro metrics`` CLI verb uses, minus the
subprocess.
"""

import asyncio

from repro import obs
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import encode_envelope
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame
from repro.obs import render_snapshot, snapshot_value


def _run(coroutine):
    return asyncio.run(coroutine)


async def _admin(port: int, command: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_frame(writer, encode_envelope("admin", cmd=command))
        return await read_frame(reader)
    finally:
        writer.close()


async def _loaded_server_scrape():
    server = NetServer("127.0.0.1", 0)
    await server.start()
    c1 = NetClient("c1", "127.0.0.1", server.port)
    c2 = NetClient("c2", "127.0.0.1", server.port)
    await c1.connect()
    await c2.connect()
    for index in range(3):
        await c1.generate(OpSpec("ins", index, "a"))
        await c2.generate(OpSpec("ins", 0, "b"))
    assert await c1.wait_converged(6, timeout=10)
    assert await c2.wait_converged(6, timeout=10)
    reply = await _admin(server.port, "metrics")
    await c1.close()
    await c2.close()
    await server.stop()
    return reply


class TestMetricsAdmin:
    def test_enabled_server_serves_a_full_exposition(self):
        obs.enable(reset=True)
        try:
            reply = _run(_loaded_server_scrape())
        finally:
            obs.disable()
        assert reply["type"] == "admin_reply"
        assert reply["enabled"] is True
        text = reply["exposition"]
        # The acceptance bar: OT, WAL, session and RTT series present.
        assert "repro_ot_transforms_total" in text
        assert "repro_wal_appends_total 6" in text
        assert "repro_session_retransmits_total" in text
        assert 'repro_net_rtt_seconds_bucket{le="+Inf"} 6' in text
        assert "repro_server_ops_serialised_total 6" in text
        # The JSON snapshot travels too, and agrees with the text.
        snapshot = reply["snapshot"]
        assert snapshot_value(snapshot, "repro_wal_appends_total") == 6.0
        assert snapshot_value(snapshot, "repro_net_rtt_seconds") == 6.0
        assert render_snapshot(snapshot) == text

    def test_disabled_server_reports_disabled(self):
        assert not obs.is_enabled()
        reply = _run(_loaded_server_scrape())
        assert reply["enabled"] is False
        assert reply["exposition"] == ""
        assert reply["snapshot"] == {"version": 1, "metrics": []}

    def test_unknown_admin_command_still_errors(self):
        async def scenario():
            server = NetServer("127.0.0.1", 0)
            await server.start()
            reply = await _admin(server.port, "nonsense")
            await server.stop()
            return reply

        assert "error" in _run(scenario())

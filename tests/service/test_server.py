"""The asyncio shell: routing, malformed frames, disconnects, drain."""

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.engine import SyntheticEngine
from repro.service.protocol import Status, encode_line
from repro.service.server import ServiceServer


def valid_raw(**overrides):
    raw = {
        "id": "req-a",
        "tenant": "carrier-a",
        "client": "client-1",
        "app": "netflix",
        "deadline_s": 30,
        "knobs": {"limiter": "common", "seed": 4, "duration": 8.0},
    }
    raw.update(overrides)
    return raw


class SlowEngine:
    """Engine that holds the worker thread for a fixed wall delay."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def run(self, batch):
        time.sleep(self.delay_s)
        return [("ok", {"detected": False})] * len(batch.requests)


async def start_server(engine=None, core=None, store=None):
    core = core or ServiceCore(ServiceConfig(max_queue=16))
    server = ServiceServer(
        core,
        engine or SyntheticEngine(realtime=False),
        store=store,
        tick_interval_s=0.02,
    )
    await server.start()
    return server


async def stop_server(server):
    server.request_drain()
    await asyncio.wait_for(server.serve_until_drained(), timeout=10)


async def read_response(reader):
    line = await asyncio.wait_for(reader.readline(), timeout=10)
    return json.loads(line)


class TestServer:
    def test_submission_round_trip(self):
        async def scenario():
            server = await start_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_line(valid_raw()))
                await writer.drain()
                response = await read_response(reader)
                assert response["id"] == "req-a"
                assert response["status"] == Status.VERDICT
                assert response["verdict"]["detected"] is True
                writer.close()
            finally:
                await stop_server(server)

        asyncio.run(scenario())

    def test_malformed_frame_fails_without_killing_the_connection(self):
        async def scenario():
            server = await start_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                failed = await read_response(reader)
                assert failed["status"] == Status.FAILED
                assert "malformed submission" in failed["reason"]
                # Same connection still serves a valid submission.
                writer.write(encode_line(valid_raw()))
                await writer.drain()
                verdict = await read_response(reader)
                assert verdict["status"] == Status.VERDICT
                writer.close()
            finally:
                await stop_server(server)

        asyncio.run(scenario())

    def test_concurrent_clients_get_their_own_responses(self):
        async def one_client(port, request_id, seed):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_line(valid_raw(
                id=request_id, client=request_id,
                knobs={"limiter": "common", "seed": seed, "duration": 8.0},
            )))
            await writer.drain()
            response = await read_response(reader)
            writer.close()
            return response

        async def scenario():
            server = await start_server()
            try:
                responses = await asyncio.gather(*[
                    one_client(server.port, f"client-{i}", i)
                    for i in range(4)
                ])
                assert sorted(r["id"] for r in responses) == [
                    f"client-{i}" for i in range(4)
                ]
                assert all(r["status"] == Status.VERDICT for r in responses)
            finally:
                await stop_server(server)

        asyncio.run(scenario())

    def test_disconnected_client_response_goes_unrouted(self):
        async def scenario():
            server = await start_server(engine=SlowEngine(0.3))
            try:
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_line(valid_raw()))
                await writer.drain()
                writer.close()  # vanish before the verdict lands
                deadline = asyncio.get_running_loop().time() + 5.0
                while not server.unrouted:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                (response,) = server.unrouted
                assert response.id == "req-a"
                assert response.status == Status.VERDICT
            finally:
                await stop_server(server)

        asyncio.run(scenario())

    def test_drain_finishes_inflight_then_closes(self):
        async def scenario():
            server = await start_server(engine=SlowEngine(0.2))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_line(valid_raw()))
            await writer.drain()
            # Give the dispatcher a beat to put the batch in flight,
            # then drain mid-service.
            await asyncio.sleep(0.1)
            server.request_drain()
            response = await read_response(reader)
            assert response["status"] == Status.VERDICT
            await asyncio.wait_for(server.serve_until_drained(), timeout=10)
            assert server.core.draining
            # The listener is closed: new connections are refused.
            try:
                await asyncio.open_connection("127.0.0.1", server.port)
            except OSError:
                pass
            else:
                raise AssertionError("drained server still accepting")
            writer.close()

        asyncio.run(scenario())

    def test_submissions_during_drain_are_rejected(self):
        async def scenario():
            server = await start_server(engine=SlowEngine(0.3))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_line(valid_raw(id="inflight")))
            await writer.drain()
            await asyncio.sleep(0.1)  # batch now in flight
            server.request_drain()
            writer.write(encode_line(valid_raw(id="late", client="late")))
            await writer.drain()
            rejected = await read_response(reader)
            assert rejected["id"] == "late"
            assert rejected["status"] == Status.REJECTED_OVERLOAD
            assert rejected["reason"] == "draining"
            inflight = await read_response(reader)
            assert inflight["id"] == "inflight"
            assert inflight["status"] == Status.VERDICT
            await asyncio.wait_for(server.serve_until_drained(), timeout=10)
            writer.close()

        asyncio.run(scenario())


class TestServeCommand:
    """``repro serve`` refuses a bad setting before it listens."""

    @pytest.mark.parametrize("argv, field", [
        (["--tenant-rate", "0"], "tenant_rate"),
        (["--tenant-rate", "nan"], "tenant_rate"),
        (["--max-queue", "0"], "max_queue"),
        (["--synthetic-service-s", "0"], "mean_service_s"),
    ])
    def test_bad_setting_exits_2_without_listening(self, capsys, argv, field):
        assert main(["serve", "--synthetic", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert err.count("\n") == 1

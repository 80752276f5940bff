"""Serve daemon under hostile clients: disconnects and oversized lines.

* A client that leaves mid-batch must not make the (non-reentrant)
  worker pool run two batches at once: ``map_batch`` is replaced by a
  fake that counts concurrent entries, so no real mapping runs.
* NDJSON batches larger than asyncio's 64 KiB default line limit are
  answered; a line over the daemon's cap gets a structured error and
  a summary before the connection closes.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time

from repro.obs.metrics import SERVE_INFLIGHT
from repro.serve import MappingServer, daemon, protocol, submit


class _CountingMapBatch:
    """Stand-in for ``scheduler.map_batch``: settles every request ok
    after ``delay`` seconds each and records peak concurrency."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.unsettled = 0  # requests entered but not yet settled

    def __call__(self, prepared, *, jobs, on_settle):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.unsettled += len(prepared)
        try:
            for p in prepared:
                time.sleep(self.delay)
                with self.lock:
                    self.unsettled -= 1
                on_settle({
                    "id": p.rid, "index": p.index, "ok": True,
                    "deduped": False,
                })
        finally:
            with self.lock:
                self.active -= 1


def _batch_line(n: int, arch: str = "simple4x4") -> bytes:
    return json.dumps({"requests": [
        {"id": f"r{i}", "kernel": "dot_product", "arch": arch}
        for i in range(n)
    ]}).encode() + b"\n"


def test_midbatch_disconnect_keeps_pool_exclusive(monkeypatch):
    fake = _CountingMapBatch(delay=0.3)
    monkeypatch.setattr(daemon, "map_batch", fake)

    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port
            gauge = server.registry.gauge(SERVE_INFLIGHT)

            def clients():
                # Client A: 4 requests, leaves (RST) after the first line.
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=30
                ) as sock:
                    stream = sock.makefile("rwb")
                    stream.write(_batch_line(4))
                    stream.flush()
                    assert json.loads(stream.readline())["ok"]
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    stream.close()  # the file holds the fd open too
                # Client B, while A's batch is still running.
                return submit(
                    [{"id": f"b{i}", "kernel": "dot_product",
                      "arch": "simple4x4"} for i in range(2)],
                    port=port, timeout=30,
                )

            loop = asyncio.get_running_loop()
            work = loop.run_in_executor(None, clients)
            samples = []
            while not work.done():
                samples.append((fake.unsettled, gauge.value))
                await asyncio.sleep(0.01)
            return await work, samples, gauge.value

    (responses, summary), samples, final = asyncio.run(go())
    assert fake.peak == 1
    # The gauge counts every request the pool has not settled yet: it
    # may not drop to 0 while the abandoned batch is still running.
    assert all(gauge >= unsettled for unsettled, gauge in samples)
    assert any(unsettled > 0 for unsettled, _ in samples)
    assert final == 0
    assert [r["id"] for r in responses] == ["b0", "b1"]
    assert all(r["ok"] for r in responses)
    assert summary["requests"] == 2 and summary["ok"] == 2


def test_ndjson_batch_over_64kib_is_answered():
    # Every request names an unknown arch: 1500 validation errors,
    # nothing reaches the pool, but the line itself is ~140 KB.
    requests = [
        {"id": f"request-{i:05d}", "kernel": "dot_product",
         "arch": "no_such_arch_4x4"}
        for i in range(1500)
    ]
    assert len(json.dumps({"requests": requests})) > 64 * 1024

    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None,
                lambda: submit(requests, port=server.bound_port, timeout=60),
            )

    responses, summary = asyncio.run(go())
    assert len(responses) == 1500
    assert all(
        r["error"]["type"] == "validation"
        and r["error"]["field"] == f"requests[{r['index']}].arch"
        for r in responses
    )
    assert summary["requests"] == 1500 and summary["errors"] == 1500


def test_ndjson_line_over_cap_gets_structured_error(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_BODY_BYTES", 8 * 1024)

    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port

            def talk():
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=30
                ) as sock:
                    stream = sock.makefile("rwb")
                    stream.write(_batch_line(400, arch="no_such_arch"))
                    stream.flush()
                    lines = []
                    while line := stream.readline():
                        lines.append(json.loads(line))
                    return lines

            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, talk)

    err, summary = asyncio.run(go())  # then EOF: the daemon closed
    assert err["ok"] is False
    assert err["error"]["type"] == "validation"
    assert err["error"]["field"] == "batch"
    assert str(8 * 1024) in err["error"]["detail"]
    assert summary["batch"]["errors"] == 1

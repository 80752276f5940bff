"""The asyncio mapping daemon.

A single process, a single port, no dependencies beyond the stdlib:
``asyncio.start_server`` accepts connections, :mod:`.protocol`
decides NDJSON vs HTTP, :mod:`.validate` turns batch documents into
validated requests, and :mod:`.scheduler` runs them over the
persistent worker pool.  Results stream back per request as they
settle.

Concurrency model: the event loop owns all sockets and all serve
metrics; pool batches run one at a time (the pool is neither
thread-safe nor reentrant) in an executor thread, guarded by an
``asyncio.Lock``, and hand each settled response back to the loop via
``call_soon_threadsafe``.  Connections multiplex freely — a second
batch arriving mid-execution queues on the lock, its validation
errors answered immediately.

Deadline semantics: a request's ``deadline_ms`` (or the daemon-wide
default) becomes the pool task's wall-clock budget — SIGALRM inside
the worker, the head-of-line backstop behind it — so an over-deadline
request settles as a structured ``timeout`` error while the rest of
its batch proceeds.

Shutdown: SIGTERM/SIGINT stop the listener, in-flight batches drain
(their responses still stream out), then the worker pool tears down
through its bounded escalation ladder — no orphaned workers.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import signal
import time
from typing import Any, Awaitable, Callable

from repro.obs.metrics import (
    MetricsRegistry,
    SERVE_BATCHES_TOTAL,
    SERVE_ERRORS_TOTAL,
    SERVE_INFLIGHT,
    SERVE_REQUEST_LATENCY_MS,
    SERVE_REQUESTS_TOTAL,
    render_prometheus,
    set_metrics,
)
from repro.parallel import shutdown as pool_shutdown, warm_pool
from repro.serve import protocol
from repro.serve.scheduler import map_batch
from repro.serve.validate import RequestError, validate_batch

__all__ = ["MappingServer"]

_log = logging.getLogger("repro.serve.daemon")

Send = Callable[[dict[str, Any]], Awaitable[None]]


class _LineTooLong(Exception):
    """An NDJSON line longer than the stream limit (``MAX_BODY_BYTES``)."""


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as ex:  # asyncio's limit overrun, re-raised by readline
        raise _LineTooLong from ex


def _ndjson_sender(writer: asyncio.StreamWriter) -> Send:
    async def send(doc: dict[str, Any]) -> None:
        writer.write(protocol.ndjson_line(doc))
        await writer.drain()

    return send


class MappingServer:
    """The serve daemon; see the module docstring for the model.

    Use as an async context manager, or ``start()``/``aclose()``
    explicitly; ``run_until_signalled()`` is the CLI entry point.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int = 2,
        timeout: float | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.default_budget = timeout
        self.registry = registry if registry is not None else MetricsRegistry()
        self._server: asyncio.AbstractServer | None = None
        self._lock = asyncio.Lock()
        self._prev_registry: Any = None
        self._closed = False
        self._conns: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actual port (after binding port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        # Fork the workers before the loop breeds threads: forking
        # from a threaded parent risks inheriting a lock mid-hold.
        warm_pool(self.jobs)
        self._prev_registry = set_metrics(self.registry)
        # NDJSON batches arrive as single lines: lift asyncio's 64 KiB
        # default line limit to the same cap HTTP bodies get.
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port,
            limit=protocol.MAX_BODY_BYTES,
        )
        _log.info("serve: listening on %s:%s", self.host, self.bound_port)

    async def aclose(
        self, *, stop_pool: bool = False, grace: float | None = None
    ) -> None:
        """Stop accepting, drain the in-flight batch, tear down.

        ``stop_pool=True`` additionally shuts the worker pool down
        (the CLI path — its atexit re-run is a no-op); in-process test
        servers leave the shared pool running.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        async with self._lock:  # drain: wait out the running batch
            pass
        # Nudge idle keep-alive connections: their handlers see EOF
        # and finish; streamed batch responses already went out.
        for writer in list(self._conns):
            try:
                writer.close()
            except Exception:
                pass
        set_metrics(self._prev_registry)
        if stop_pool:
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(pool_shutdown, grace)
            )

    async def __aenter__(self) -> "MappingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def run_until_signalled(
        self, *, grace: float | None = None, ready: Callable | None = None
    ) -> None:
        """Serve until SIGTERM/SIGINT, then drain and stop the pool."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        try:
            if ready is not None:
                ready(self)
            await stop.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
            await self.aclose(stop_pool=True, grace=grace)

    # -- connection handling -------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        try:
            first = await _readline(reader)
            if not first:
                return
            if first.lstrip()[:1] in (b"{", b"["):
                await self._serve_ndjson(first, reader, writer)
            else:
                await self._serve_http(first, reader, writer)
        except _LineTooLong:
            # The rest of the line is still in flight and cannot be
            # resynchronised: answer once, then close the connection.
            with contextlib.suppress(ConnectionError):
                await self._send_batch_error(
                    _ndjson_sender(writer), "batch",
                    f"NDJSON line over the {protocol.MAX_BODY_BYTES}-byte"
                    " cap",
                )
        except (
            ConnectionResetError, BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # loop teardown mid-connection; just close below
        except Exception:
            _log.exception("serve: connection handler failed")
        finally:
            self._conns.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                pass  # already closing; ending non-cancelled keeps
                # asyncio's stream callback from logging the teardown

    async def _serve_ndjson(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        send = _ndjson_sender(writer)
        line = first
        while line:
            text = line.strip()
            if text:
                await self._serve_batch_text(text, send)
            line = await _readline(reader)

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, path = protocol.parse_request_line(first)
            headers = await protocol.read_headers(reader)
            if method == "POST" and path == "/map":
                body = await protocol.read_body(reader, headers)
                writer.write(protocol.response_head(
                    200, "OK", content_type="application/x-ndjson"
                ))
                await self._serve_batch_text(body, _ndjson_sender(writer))
                return
            if method == "GET" and path == "/metrics":
                writer.write(protocol.simple_response(
                    200, "OK", render_prometheus(self.registry) + "\n"
                ))
                return
            if method == "GET" and path in ("/healthz", "/health"):
                writer.write(protocol.simple_response(200, "OK", "ok\n"))
                return
            writer.write(protocol.simple_response(
                404, "Not Found", f"no route {method} {path}\n"
            ))
        except protocol.HttpError as ex:
            writer.write(protocol.simple_response(
                ex.status, ex.reason, ex.reason + "\n"
            ))
        await writer.drain()

    # -- batch execution -----------------------------------------------
    async def _serve_batch_text(self, raw: bytes, send: Send) -> None:
        """Parse and run one batch; every defect becomes a response."""
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as ex:
            await self._send_batch_error(
                send, "batch", f"not valid JSON: {ex}"
            )
            return
        try:
            await self._run_batch(doc, send)
        except RequestError as ex:  # mis-shaped batch envelope
            await self._send_batch_error(send, ex.field, ex.detail)

    async def _send_batch_error(
        self, send: Send, field: str, detail: str
    ) -> None:
        self.registry.counter(SERVE_ERRORS_TOTAL).inc()
        await send({
            "ok": False,
            "error": {
                "type": "validation", "field": field, "detail": detail,
            },
        })
        await send({"batch": {
            "requests": 0, "ok": 0, "errors": 1, "deduped": 0,
        }})

    async def _run_batch(self, doc: Any, send: Send) -> None:
        t0 = time.monotonic()
        reg = self.registry
        prepared, bad = validate_batch(
            doc, default_budget=self.default_budget
        )
        reg.counter(SERVE_REQUESTS_TOTAL).inc(len(prepared) + len(bad))
        n_ok, n_err, n_dedup = 0, 0, 0
        for index, rid, ex in bad:
            reg.counter(SERVE_ERRORS_TOTAL).inc()
            n_err += 1
            await send({
                "id": rid,
                "index": index,
                "ok": False,
                "error": {
                    "type": "validation",
                    "field": ex.field,
                    "detail": ex.detail,
                },
            })
        if prepared:
            loop = asyncio.get_running_loop()
            queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
            accepted = {p.index: time.monotonic() for p in prepared}

            def on_settle(resp: dict[str, Any]) -> None:
                loop.call_soon_threadsafe(queue.put_nowait, resp)

            async with self._lock:
                inflight = reg.gauge(SERVE_INFLIGHT)
                inflight.inc(len(prepared))
                batch_fut = loop.run_in_executor(
                    None,
                    functools.partial(
                        map_batch, prepared,
                        jobs=self.jobs, on_settle=on_settle,
                    ),
                )
                try:
                    for _ in range(len(prepared)):
                        resp = await queue.get()
                        inflight.dec()
                        reg.histogram(SERVE_REQUEST_LATENCY_MS).observe(
                            1000 * (
                                time.monotonic()
                                - accepted[resp["index"]]
                            )
                        )
                        if resp.get("ok"):
                            n_ok += 1
                        else:
                            reg.counter(SERVE_ERRORS_TOTAL).inc()
                            n_err += 1
                        if resp.get("deduped"):
                            n_dedup += 1
                        await send(resp)
                    await batch_fut
                finally:
                    # A send that raised (the client left mid-batch)
                    # must not release the lock while the pool still
                    # runs this batch: the pool is not reentrant.
                    # Every settled response is queued before the
                    # executor future completes, so once it is done
                    # the rest of the batch is in the queue: discard it.
                    await asyncio.wait((batch_fut,))
                    while not queue.empty():
                        queue.get_nowait()
                        inflight.dec()
            reg.counter(SERVE_BATCHES_TOTAL).inc()
        await send({"batch": {
            "requests": len(prepared) + len(bad),
            "ok": n_ok,
            "errors": n_err,
            "deduped": n_dedup,
            "elapsed_ms": round(1000 * (time.monotonic() - t0), 3),
        }})

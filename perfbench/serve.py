"""The ``serve`` workload: a real ``repro serve`` daemon, driven
closed-loop by two persistent NDJSON client connections."""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checker import check_served, same_bytes
from common import OUT, ROOT, SRC, SpanLog, median
from workloads import POPULAR, SERVE_BATCH_SIZES

#: daemon boots per run; the median is ``setup_s`` and the last daemon
#: serves the run
BOOTS = 5
BOOT_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One request and the response line it got."""

    client: int
    batch: int
    req: dict[str, Any]
    resp: dict[str, Any]
    t_send: float
    t_arrive: float
    traced: bool
    first_seen: bool  # a popular problem's first request in the run
    route_steps: int = 0
    spatial: bool = False
    verdict: str | None = None  # set by check(): None when correct

    @property
    def ok(self) -> bool:
        return bool(self.resp.get("ok"))

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.t_arrive - self.t_send)


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    cache_dir: Path
    boot_s: float
    log: Any = field(repr=False)


def _signature(req: dict[str, Any]) -> str:
    """A request's problem, without its id."""
    return json.dumps(
        {k: v for k, v in req.items() if k != "id"}, sort_keys=True
    )


def _warmup_batch() -> list[dict[str, Any]]:
    """Popular kernels under a mapper the workload never asks for them
    with: workers touch every kernel memo and mapper import, and the
    disk cache gets no entry the timed requests could hit."""
    return [
        {"id": f"warm{i}", "kernel": k, "mapper": "ultrafast", "arch": a}
        for i, (k, _m, a) in enumerate(POPULAR)
    ]


class Client:
    """One persistent NDJSON connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=IO_TIMEOUT_S
        )
        self.stream = self.sock.makefile("rwb")

    def batch(
        self, requests: list[dict[str, Any]]
    ) -> tuple[float, list[tuple[float, bytes]]]:
        """Send one batch and read to its summary line.

        Returns ``(t_send, [(t_arrive, raw response line)])``.  Lines
        are parsed after the timed region; the daemon sorts keys, so
        the summary is the one line opening with ``{"batch":``.
        """
        line = json.dumps({"requests": requests}).encode() + b"\n"
        t_send = time.perf_counter()
        self.stream.write(line)
        self.stream.flush()
        out: list[tuple[float, bytes]] = []
        while True:
            raw = self.stream.readline()
            t = time.perf_counter()
            if not raw:
                raise ConnectionError("daemon closed the connection")
            if raw.startswith(b'{"batch":'):
                return t_send, out
            out.append((t, raw))

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def boot(cache_dir: Path, jobs: int) -> Daemon:
    """Start a daemon on a fresh cache directory; time process start to
    its first answered batch (the warm-up)."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log = open(cache_dir.parent / f"{cache_dir.name}.log", "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", str(jobs), "--cache-dir", str(cache_dir)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
    )
    daemon = Daemon(proc, 0, cache_dir, 0.0, log)
    try:
        daemon.port = _await_port(proc)
        client = Client(daemon.port)
        try:
            _t, got = client.batch(_warmup_batch())
        finally:
            client.close()
        bad = [raw for _t, raw in got if not json.loads(raw).get("ok")]
        if bad:
            raise RuntimeError(f"warm-up batch failed: {bad[:2]}")
    except BaseException:
        stop(daemon)
        raise
    daemon.boot_s = time.perf_counter() - t0
    return daemon


def _await_port(proc: subprocess.Popen) -> int:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    try:
        while time.monotonic() < deadline:
            if not sel.select(timeout=deadline - time.monotonic()):
                break
            line = proc.stdout.readline().decode()
            if not line:
                raise RuntimeError("daemon exited before listening")
            if line.startswith("serve: listening on"):
                return int(line.rsplit(":", 1)[1])
    finally:
        sel.close()
    raise RuntimeError("daemon did not report a port in time")


def stop(daemon: Daemon) -> None:
    """SIGTERM (the daemon drains and stops its pool), then wait."""
    proc = daemon.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()
    daemon.log.close()


def scrape(port: int) -> dict[str, float]:
    """The daemon's ``/metrics`` exposition as ``{series: value}``."""
    with socket.create_connection(
        ("127.0.0.1", port), timeout=IO_TIMEOUT_S
    ) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    body = b"".join(chunks).split(b"\r\n\r\n", 1)[1].decode()
    out: dict[str, float] = {}
    for line in body.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def setup(inputs: dict[str, Any], seed: int) -> dict[str, Any]:
    """Boot ``BOOTS`` daemons, each on a fresh cache; keep the last."""
    base = OUT / f"serve-{seed}"
    boots: list[float] = []
    daemon = None
    for k in range(BOOTS):
        if daemon is not None:
            stop(daemon)
        daemon = boot(base / f"cache{k}", inputs["jobs"])
        boots.append(daemon.boot_s)
    return {"daemon": daemon, "boots": boots}


def run(
    inputs: dict[str, Any], state: dict[str, Any], *, trace_mode: bool,
    spans: SpanLog,
) -> dict[str, Any]:
    """Both clients send their batches back to back; in trace mode every
    other block of batches is traced."""
    from repro.cache.store import DiskStore

    daemon: Daemon = state["daemon"]
    entries0 = DiskStore(daemon.cache_dir).stats()["entries"]
    before = scrape(daemon.port)
    clients = [Client(daemon.port) for _ in inputs["clients"]]
    # per client: (batch, traced, t_send, t_done, [(t_arrive, raw line)])
    sent: list[list[tuple]] = [[] for _ in clients]
    errors: list[BaseException] = []
    start = threading.Barrier(len(clients))

    def drive(c: int) -> None:
        try:
            start.wait()
            for b, reqs in enumerate(inputs["clients"][c]):
                # Whole blocks of the batch-size cycle alternate, so both
                # modes see the same batch-size mix.
                traced = trace_mode and (b // len(SERVE_BATCH_SIZES)) % 2 == 1
                t_send, got = clients[c].batch(reqs)
                sent[c].append((b, traced, t_send, time.perf_counter(), got))
        except BaseException as ex:  # reported by the main thread
            errors.append(ex)

    threads = [
        threading.Thread(target=drive, args=(c,)) for c in range(len(clients))
    ]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = time.perf_counter() - t0
    for cl in clients:
        cl.close()
    if errors:
        raise errors[0]
    after = scrape(daemon.port)
    entries1 = DiskStore(daemon.cache_dir).stats()["entries"]

    ops: list[Op] = []
    batches: list[dict[str, Any]] = []
    for c, log in enumerate(sent):
        for b, traced, t_send, t_done, got in log:
            reqs = inputs["clients"][c][b]
            batches.append({
                "traced": traced, "seconds": t_done - t_send,
                "first_s": got[0][0] - t_send,
            })
            bid = spans.add(
                "batch", t_send, t_done, trace_id=f"c{c}b{b}",
                requests=len(reqs),
            ) if traced else None
            if traced:
                spans.add("first_response", t_send, got[0][0],
                          parent=bid, trace_id=f"c{c}b{b}")
            by_index = {}
            for t, raw in got:
                doc = json.loads(raw)
                by_index[doc.get("index")] = (t, doc)
            for i, req in enumerate(reqs):
                t, doc = by_index[i]
                ops.append(Op(
                    client=c, batch=b, req=req, resp=doc, t_send=t_send,
                    t_arrive=t, traced=traced, first_seen=False,
                ))
                if traced:
                    spans.add(
                        "request", t_send, t, parent=bid, trace_id=req["id"],
                        deduped=bool(doc.get("deduped")),
                    )
    seen: set[str] = set()
    for op in sorted(ops, key=lambda o: o.t_send):
        if "kernel" in op.req:
            sig = _signature(op.req)
            op.first_seen = sig not in seen
            seen.add(sig)
    return {
        "ops": ops, "batches": batches, "wall": wall,
        "n_clients": len(clients), "trace_mode": trace_mode,
        "metrics": (before, after), "entries_written": entries1 - entries0,
    }


def teardown(state: dict[str, Any]) -> None:
    """Stop the serving daemon and delete the run's cache directories."""
    daemon = state.get("daemon")
    if daemon is not None:
        stop(daemon)
        state["daemon"] = None
        for cache in daemon.cache_dir.parent.glob("cache*"):
            if cache.is_dir():
                shutil.rmtree(cache, ignore_errors=True)


def _problem(req: dict[str, Any], memo: dict[str, Any]) -> tuple:
    from repro.arch import presets
    from repro.core.serialize import dfg_from_doc
    from repro.ir import kernels as kernel_lib

    sig = _signature(req)
    if sig not in memo:
        dfg = (
            kernel_lib.kernel(req["kernel"]) if "kernel" in req
            else dfg_from_doc(req["dfg"])
        )
        memo[sig] = (dfg, presets.by_name(req["arch"]))
    return memo[sig]


def check(result: dict[str, Any], state: dict[str, Any], seed: int) -> None:
    """Rebuild and check every served mapping; deduped responses must
    be byte-identical to their batch's primary.  Sets each request's
    ``verdict``."""
    from repro.core.metrics import metrics_of

    rng = random.Random(f"serve-check:{seed}")
    problems: dict[str, Any] = {}
    verdicts: dict[tuple[str, str], tuple[str | None, int]] = {}
    primaries: dict[tuple[int, int, str], dict[str, Any]] = {}
    for op in result["ops"]:
        if op.ok and not op.resp.get("deduped"):
            primaries[(op.client, op.batch, _signature(op.req))] = (
                op.resp["mapping"]
            )
    for op in result["ops"]:
        rid = op.req["id"]
        err = None
        if not op.ok:
            err = f"{rid}: {op.resp.get('error')}"
        else:
            sig = _signature(op.req)
            doc = op.resp["mapping"]
            vkey = (sig, json.dumps(doc, sort_keys=True))
            if vkey not in verdicts:
                dfg, cgra = _problem(op.req, problems)
                mapping, bad = check_served(op.resp, dfg, cgra, rng)
                steps = (
                    metrics_of(mapping).route_steps
                    if mapping is not None and mapping.kind == "spatial"
                    else 0
                )
                verdicts[vkey] = (bad, steps)
            bad, op.route_steps = verdicts[vkey]
            op.spatial = doc.get("kind") == "spatial"
            if bad:
                err = f"{rid}: {bad}"
            elif op.resp.get("deduped"):
                primary = primaries.get((op.client, op.batch, sig))
                if primary is None:
                    err = f"{rid}: deduped response without a primary"
                elif not same_bytes(primary, doc):
                    err = f"{rid}: deduped mapping differs from its primary"
        op.verdict = err


def end_to_end(result: dict[str, Any], traced: bool) -> dict[str, Any]:
    ops = [op for op in result["ops"] if op.traced == traced]
    ok = [op for op in ops if op.ok and op.verdict is None]
    if result["trace_mode"]:
        # The modes interleave batch by batch; each client's time in a
        # mode, averaged over the concurrent clients, is that mode's wall.
        busy = [
            b["seconds"] for b in result["batches"] if b["traced"] == traced
        ]
        wall = sum(busy) / result["n_clients"]
    else:
        wall = result["wall"]
    return {
        "ops": len(ops),
        "wall_s": wall,
        "latencies": [op.latency_ms for op in ops],
        "ok": len(ok),
        "ii_sum": sum(op.resp["ii"] for op in ok if not op.spatial),
        "route_steps_sum": sum(op.route_steps for op in ok if op.spatial),
    }


def _hist_p50(before: dict, after: dict, name: str) -> float:
    """p50 (bucket upper bound) of a histogram's growth between two
    scrapes."""
    prefix = f"{name}_bucket{{le=\""
    buckets = []
    for key, value in after.items():
        if key.startswith(prefix) and "+Inf" not in key:
            le = float(key[len(prefix):-2])
            buckets.append((le, value - before.get(key, 0.0)))
    buckets.sort()
    total = after.get(f"{name}_count", 0.0) - before.get(
        f"{name}_count", 0.0
    )
    for le, cum in buckets:
        if total and cum >= 0.5 * total:
            return le
    return 0.0


def per_layer(
    result: dict[str, Any], state: dict[str, Any], inputs: dict[str, Any]
) -> dict[str, float]:
    """Serving-layer metrics of the traced batches (the /metrics
    deltas and the cache count span the whole run)."""
    from repro.core.serialize import mapping_from_doc, mapping_to_doc
    from repro.serve.validate import validate_batch

    ops = [op for op in result["ops"] if op.traced]
    before, after = result["metrics"]

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    primaries = [op for op in ops if op.ok and not op.resp.get("deduped")]
    batches: dict[tuple[int, int], list[dict]] = {}
    for op in ops:
        batches.setdefault((op.client, op.batch), []).append(op.req)
    validate_ms = []
    for reqs in batches.values():
        t0 = time.perf_counter()
        validate_batch({"requests": reqs})
        validate_ms.append(1000.0 * (time.perf_counter() - t0))
    serialize_ms = []
    problems: dict[str, Any] = {}
    for op in primaries:
        dfg, cgra = _problem(op.req, problems)
        t0 = time.perf_counter()
        mapping_to_doc(mapping_from_doc(op.resp["mapping"], dfg, cgra))
        serialize_ms.append(1000.0 * (time.perf_counter() - t0))
    firsts = [1000.0 * b["first_s"] for b in result["batches"] if b["traced"]]
    fresh = [op.latency_ms for op in ops if "dfg" in op.req]
    repeat = [
        op.latency_ms for op in ops if "kernel" in op.req
        and not op.first_seen
    ]
    return {
        "pool.tasks_run": (
            delta("repro_maps_total") + delta("repro_map_failures_total")
        ),
        "pool.dedup_hits": delta("repro_pool_dedup_total"),
        "pool.respawns": delta("repro_pool_respawns_total"),
        "pool.worker_overhead_ms": median(
            [op.resp["elapsed_ms"] - op.resp["map_time_ms"]
             for op in primaries]
        ),
        "serve.validate_ms": median(validate_ms),
        "serve.outside_worker_ms": median(
            [op.latency_ms - op.resp["elapsed_ms"] for op in primaries]
        ),
        "serve.map_time_ms": median(
            [op.resp["map_time_ms"] for op in primaries]
        ),
        "serve.first_response_ms": median(firsts),
        "serve.accept_to_settle_ms": _hist_p50(
            before, after, "repro_serve_request_latency_ms"
        ),
        "serve.dedup_share": (
            sum(1 for op in ops if op.resp.get("deduped")) / len(ops)
            if ops else 0.0
        ),
        "cache.repeat_latency_ms": median(repeat),
        "cache.fresh_latency_ms": median(fresh),
        "cache.entries_written": float(result["entries_written"]),
        "core.serialize_ms": median(serialize_ms),
    }


def describe(inputs: dict[str, Any]) -> str:
    n_batches = sum(len(c) for c in inputs["clients"])
    n_reqs = sum(len(b) for c in inputs["clients"] for b in c)
    return (
        f"{len(inputs['clients'])} closed-loop clients, {n_batches}"
        f" batches, {n_reqs} requests, daemon --jobs {inputs['jobs']}"
    )

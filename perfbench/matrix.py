"""The ``matrix`` workload: seeded run_matrix sweeps at jobs=2, cache off."""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from common import SpanLog, median
from checker import check_mapping, quality


@dataclass
class Op:
    """One matrix cell as the harness reported it."""

    arch: str
    mapper: str
    kernel: str
    round: int
    ok: bool
    ii: int | None
    schedule_length: int
    route_steps: int
    time_ms: float
    total_ms: float
    error: str
    traced: bool
    trace: Any = field(default=None, repr=False)
    verdict: str | None = None  # set by check(): None when correct


def setup(inputs: dict[str, Any]) -> dict[str, Any]:
    """Everything before the clock: imports, arch tables, kernels, a
    warm-up map per mapper in this process (lazy solver imports and
    kernel memos, inherited by the workers), then the pool fork."""
    from repro.arch import presets
    from repro.core.registry import create
    from repro.ir import kernels as kernel_lib
    from repro.parallel import warm_pool
    from repro.parallel.pool import prewarm

    prewarm()
    archs = {}
    for call in inputs["calls"]:
        if call["arch"] not in archs:
            cgra = presets.by_name(call["arch"])
            cgra.distance_table()
            cgra.flat_graph()
            archs[call["arch"]] = cgra
    mappers = sorted({m for c in inputs["calls"] for m in c["mappers"]})
    kernels = sorted({k for c in inputs["calls"] for k in c["kernels"]})
    for k in kernels:
        kernel_lib.kernel(k)
    warm = kernel_lib.kernel("dot_product")
    for m in mappers:
        create(m).map(warm, archs["simple4x4"])
    pool = warm_pool(inputs["jobs"])
    return {"archs": archs, "pool": pool}


def run(
    inputs: dict[str, Any], state: dict[str, Any], *, trace_mode: bool,
    spans: SpanLog,
) -> dict[str, Any]:
    """Run every planned run_matrix call; in trace mode odd rounds run
    traced and even rounds untraced, interleaved against drift."""
    from repro.bench.harness import run_matrix
    from repro.obs import to_records
    from repro.obs.metrics import MetricsRegistry, metrics_scope

    ops: list[Op] = []
    wall = {False: 0.0, True: 0.0}
    pool = state["pool"]
    registry = MetricsRegistry()
    pool_delta = [0, 0, 0]
    for call in inputs["calls"]:
        traced = trace_mode and call["round"] % 2 == 1
        cgra = state["archs"][call["arch"]]
        snap = (pool.tasks_run, pool.dedup_hits, pool.respawns)
        t0 = time.perf_counter()
        with metrics_scope(registry) if traced else nullcontext():
            rows = run_matrix(
                call["mappers"], call["kernels"], cgra,
                jobs=inputs["jobs"], timeout=inputs["budget_s"],
                cache=False, trace=traced,
            )
        t1 = time.perf_counter()
        wall[traced] += t1 - t0
        if traced:
            for i, now in enumerate(
                (pool.tasks_run, pool.dedup_hits, pool.respawns)
            ):
                pool_delta[i] += now - snap[i]
        call_id = spans.add(
            "run_matrix", t0, t1, group=call["group"], arch=call["arch"],
            round=call["round"], cells=len(rows),
        )
        for r in rows:
            op = Op(
                arch=call["arch"], mapper=r.mapper, kernel=r.kernel,
                round=call["round"], ok=r.ok, ii=r.ii,
                schedule_length=r.schedule_length,
                route_steps=r.route_steps, time_ms=r.time_ms,
                total_ms=r.total_ms, error=r.error, traced=traced,
                trace=r.trace,
            )
            ops.append(op)
            if traced and r.trace is not None:
                tid = f"{call['arch']}/{r.mapper}/{r.kernel}/r{call['round']}"
                cell_id = spans.add(
                    "cell", r.trace.t_start, r.trace.t_end,
                    parent=call_id, trace_id=tid,
                )
                spans.attach(
                    to_records(r.trace), parent=cell_id, trace_id=tid
                )
    return {"ops": ops, "wall": wall, "registry": registry,
            "pool_delta": pool_delta}


def check(result: dict[str, Any], state: dict[str, Any], seed: int) -> None:
    """Serial re-map of every distinct cell; every row must match it.
    Sets each row's ``verdict``."""
    from repro.core.exceptions import MapFailure
    from repro.core.registry import create
    from repro.ir import kernels as kernel_lib

    rng = random.Random(f"matrix-check:{seed}")
    expected: dict[tuple, tuple | str] = {}
    for op in result["ops"]:
        cell = (op.arch, op.mapper, op.kernel)
        if cell not in expected:
            dfg = kernel_lib.kernel(op.kernel)
            try:
                mapping = create(op.mapper).map(dfg, state["archs"][op.arch])
            except MapFailure as ex:
                expected[cell] = f"serial re-map failed: {ex}"
            else:
                bad = check_mapping(mapping, dfg, rng)
                expected[cell] = bad if bad else quality(mapping)
        want = expected[cell]
        name = "/".join(cell)
        if not op.ok:
            err = f"{name}: cell failed: {op.error}"
        elif isinstance(want, str):
            err = f"{name}: {want}"
        elif (op.ii, op.schedule_length, op.route_steps) != want:
            err = (
                f"{name}: row (ii, len, routes) ="
                f" {(op.ii, op.schedule_length, op.route_steps)}"
                f" != serial {want}"
            )
        else:
            err = None
        op.verdict = err


def end_to_end(result: dict[str, Any], traced: bool) -> dict[str, Any]:
    """Throughput, latency sample and quality sums of one mode."""
    ops = [op for op in result["ops"] if op.traced == traced]
    ok = [op for op in ops if op.ok and op.verdict is None]
    return {
        "ops": len(ops),
        "wall_s": result["wall"][traced],
        "latencies": [op.total_ms for op in ops],
        "ok": len(ok),
        "ii_sum": sum(op.ii for op in ok if op.ii is not None),
        "route_steps_sum": sum(
            op.route_steps for op in ok if op.ii is None
        ),
    }


def per_layer(
    result: dict[str, Any], state: dict[str, Any], inputs: dict[str, Any]
) -> dict[str, float]:
    """Layer metrics of the traced rounds."""
    from repro.core.registry import catalog
    from repro.obs.metrics import SAT_CONFLICTS

    ops = [op for op in result["ops"] if op.traced]
    wall = result["wall"][True]
    family = {name: info["family"] for name, info in catalog().items()}
    fam_ms = {"heuristic": 0.0, "metaheuristic": 0.0, "exact": 0.0}
    ii_spans = 0
    sat_self = 0.0
    for op in ops:
        fam_ms[family[op.mapper]] += op.time_ms
        if op.trace is not None:
            for _, span in op.trace.walk():
                if span.name == "ii":
                    ii_spans += 1
                elif span.name == "sat_solve":
                    sat_self += span.self_duration
    snap = result["registry"].snapshot().get(SAT_CONFLICTS, {})
    tasks, dedup, respawns = result["pool_delta"]
    return {
        "pool.busy_share": (
            sum(op.total_ms for op in ops)
            / (1000.0 * inputs["jobs"] * wall)
            if wall else 0.0
        ),
        "pool.tasks_run": float(tasks),
        "pool.dedup_hits": float(dedup),
        "pool.respawns": float(respawns),
        "harness.cell_overhead_ms": median(
            [op.total_ms - op.time_ms for op in ops if op.ok]
        ),
        "mappers.ii_attempts_per_map": ii_spans / len(ops) if ops else 0.0,
        "mappers.family_ms.heuristic": fam_ms["heuristic"],
        "mappers.family_ms.metaheuristic": fam_ms["metaheuristic"],
        "mappers.family_ms.exact": fam_ms["exact"],
        "solvers.sat_solve_self_ms": 1000.0 * sat_self,
        "solvers.sat_conflicts": float(snap.get("sum", 0)),
    }


def describe(inputs: dict[str, Any]) -> str:
    cells = sum(
        len(c["mappers"]) * len(c["kernels"]) for c in inputs["calls"]
    )
    rounds = 1 + max(c["round"] for c in inputs["calls"])
    return f"{rounds} rounds x {cells // rounds} cells, jobs={inputs['jobs']}"


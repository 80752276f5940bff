"""The ``bigfabric`` workload: serial cluster maps of long chains."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from checker import check_mapping
from common import Phase, SpanLog

#: wall-clock budget of the braided tracked instance (it fails in
#: 2.5-4 s at this commit)
BRAIDED_BUDGET_S = 15.0


@dataclass
class Op:
    """One chain: a cluster (spatial) map and a list_sched (modulo) map."""

    kernel: str
    arch: str
    ok: bool
    cluster_ms: float
    modulo_ms: float
    error: str = ""
    traced: bool = False
    spatial: Any = field(default=None, repr=False)
    modulo: Any = field(default=None, repr=False)
    verdict: str | None = None  # set by check(): None when correct


def setup(inputs: dict[str, Any]) -> dict[str, Any]:
    """Imports, cold arch tables (timed), chain construction, and one
    small warm-up map per mapper (numpy and lazy-import first touch)."""
    from repro.arch import presets
    from repro.core.registry import create
    from repro.ir import kernels as kernel_lib

    archs, dist_ms, flat_ms = {}, 0.0, 0.0
    for inst in inputs["instances"]:
        name = inst["arch"]
        if name in archs:
            continue
        cgra = presets.by_name(name)
        t0 = time.perf_counter()
        cgra.distance_table()
        t1 = time.perf_counter()
        cgra.flat_graph()
        t2 = time.perf_counter()
        dist_ms += 1000.0 * (t1 - t0)
        flat_ms += 1000.0 * (t2 - t1)
        archs[name] = cgra
    for inst in inputs["instances"]:
        kernel_lib.kernel(inst["kernel"])
    warm = kernel_lib.kernel("layered:40:1:7")
    for name in ("cluster", "list_sched"):
        create(name).map(warm, archs["simple16x16"])
    return {"archs": archs, "distance_table_ms": dist_ms,
            "flat_graph_ms": flat_ms}


def run(
    inputs: dict[str, Any], state: dict[str, Any], *, trace_mode: bool,
    spans: SpanLog,
) -> dict[str, Any]:
    """Map every chain.  In trace mode the first half of the chains
    each run twice, untraced and traced (alternating which goes first),
    so the tracing overhead compares identical work."""
    from repro.core.exceptions import MapFailure
    from repro.core.registry import create
    from repro.ir import kernels as kernel_lib
    from repro.obs import to_records, tracing

    instances = inputs["instances"]
    if trace_mode:
        half = instances[: max(1, len(instances) // 2)]
        plan = [
            (inst, traced)
            for i, inst in enumerate(half)
            for traced in ((False, True) if i % 2 == 0 else (True, False))
        ]
    else:
        plan = [(inst, False) for inst in instances]
    ops: list[Op] = []
    wall = {False: 0.0, True: 0.0}
    for inst, traced in plan:
        dfg = kernel_lib.kernel(inst["kernel"])
        cgra = state["archs"][inst["arch"]]
        spatial = modulo = None
        error = ""
        t0 = time.perf_counter()
        try:
            if traced:
                with tracing():
                    spatial = create("cluster").map(dfg, cgra)
            else:
                spatial = create("cluster").map(dfg, cgra)
        except MapFailure as ex:
            error = f"cluster: {ex}"
        t1 = time.perf_counter()
        try:
            modulo = create("list_sched").map(dfg, cgra)
        except MapFailure as ex:
            error = error or f"list_sched: {ex}"
        t2 = time.perf_counter()
        wall[traced] += t2 - t0
        ops.append(Op(
            kernel=inst["kernel"], arch=inst["arch"],
            ok=spatial is not None and modulo is not None,
            cluster_ms=1000.0 * (t1 - t0), modulo_ms=1000.0 * (t2 - t1),
            error=error, traced=traced, spatial=spatial, modulo=modulo,
        ))
        tid = f"{inst['arch']}/{inst['kernel']}"
        inst_id = spans.add("instance", t0, t2, trace_id=tid, traced=traced)
        map_id = spans.add(
            "cluster.map", t0, t1, parent=inst_id, trace_id=tid
        )
        spans.add("list_sched.map", t1, t2, parent=inst_id, trace_id=tid)
        if traced and spatial is not None and spatial.trace is not None:
            spans.attach(
                to_records(spatial.trace), parent=map_id, trace_id=tid
            )
    return {"ops": ops, "wall": wall}


def tracked_braided(inputs: dict[str, Any], phase: Phase) -> int:
    """Map the braided instance once under a budget, outside the timed
    region.  Returns 1 if it mapped and validated, else 0."""
    from repro.arch import presets
    from repro.core.exceptions import MapFailure
    from repro.core.registry import create
    from repro.ir import kernels as kernel_lib
    from repro.parallel import TaskTimeout, time_limit

    spec = inputs["braided"]
    dfg = kernel_lib.kernel(spec["kernel"])
    cgra = presets.by_name(spec["arch"])
    try:
        with time_limit(BRAIDED_BUDGET_S):
            mapping = create("cluster").map(dfg, cgra)
    except (MapFailure, TaskTimeout) as ex:
        phase.tally(False, f"{spec['kernel']}: {type(ex).__name__}")
        return 0
    bad = mapping.validate(raise_on_error=False)
    phase.tally(not bad, "; ".join(bad[:2]))
    return 0 if bad else 1


def check(result: dict[str, Any], state: dict[str, Any], seed: int) -> None:
    """Validate both mappings of every chain, simulate the modulo one;
    sets each chain's ``verdict``."""
    from repro.ir import kernels as kernel_lib

    rng = random.Random(f"bigfabric-check:{seed}")
    for op in result["ops"]:
        dfg = kernel_lib.kernel(op.kernel)
        name = f"{op.arch}/{op.kernel}"
        if not op.ok:
            err = f"{name}: {op.error}"
        else:
            err = check_mapping(op.spatial, dfg, rng) or check_mapping(
                op.modulo, dfg, rng
            )
            err = f"{name}: {err}" if err else None
        op.verdict = err


def end_to_end(result: dict[str, Any], traced: bool) -> dict[str, Any]:
    from repro.core.metrics import metrics_of

    ops = [op for op in result["ops"] if op.traced == traced]
    ok = [op for op in ops if op.ok and op.verdict is None]
    return {
        "ops": len(ops),
        "wall_s": result["wall"][traced],
        "latencies": [op.cluster_ms for op in ops],
        "ok": len(ok),
        "ii_sum": sum(op.modulo.ii for op in ok),
        "route_steps_sum": sum(
            metrics_of(op.spatial).route_steps for op in ok
        ),
    }


def per_layer(
    result: dict[str, Any], state: dict[str, Any], inputs: dict[str, Any]
) -> dict[str, float]:
    """Phase self-times of the traced cluster maps, the arch tables'
    cold build times, and the tracked braided instance's outcome."""
    from repro.obs import ROUTING_ATTEMPTS

    ops = [op for op in result["ops"] if op.traced]
    self_ms = {"partition": 0.0, "global_place": 0.0, "refine": 0.0,
               "restart": 0.0, "route": 0.0}
    restarts = rounds = maps = 0
    for op in ops:
        if op.spatial is None or op.spatial.trace is None:
            continue
        maps += 1
        for _, span in op.spatial.trace.walk():
            if span.name in self_ms:
                self_ms[span.name] += 1000.0 * span.self_duration
            if span.name == "restart":
                restarts += 1
            elif span.name == "route":
                rounds += span.total(ROUTING_ATTEMPTS)
    cluster_ms = sum(op.cluster_ms for op in ops)
    return {
        "cluster.partition_self_ms": self_ms["partition"],
        "cluster.global_place_self_ms": self_ms["global_place"],
        "cluster.refine_self_ms": self_ms["refine"],
        "cluster.refine_share": (
            self_ms["refine"] / cluster_ms if cluster_ms else 0.0
        ),
        "cluster.restart_self_ms": self_ms["restart"],
        "cluster.route_self_ms": self_ms["route"],
        "cluster.route_rounds": float(rounds),
        "cluster.restart_yield": maps / restarts if restarts else 0.0,
        "cluster.braided_mapped": float(state["braided_ok"]),
        "arch.distance_table_ms": state["distance_table_ms"],
        "arch.flat_graph_ms": state["flat_graph_ms"],
    }


def describe(inputs: dict[str, Any]) -> str:
    return (
        f"{len(inputs['instances'])} chains, serial;"
        f" tracked braided {inputs['braided']['kernel']}"
        f" on {inputs['braided']['arch']}"
    )

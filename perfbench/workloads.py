"""Seeded input generators for the three workloads, and their manifest.

Every generator is a pure function of ``(seed, seconds)``: the same
seed gives byte-identical inputs, and :func:`digest` over the inputs
lets two runs show they did identical work.  The amount of work is
fixed per run (sized from ``--seconds`` by a per-workload constant
measured on a 2-core x86 box), never "as much as fits", so two runs
of one seed time the same operations.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any

# -- matrix -------------------------------------------------------------
# Why: run_matrix at jobs=2 with the cache off puts the pool, the
# harness, the temporal mappers and the exact solvers on the critical
# path, and the cluster placer nowhere; it is the workload behind the
# ROADMAP's jobs=2 speed-up question.
#
# The cell set is fixed; the seed draws the submission order (of the
# groups, and of the mappers and kernels inside each run_matrix call),
# which decides which worker runs what and where batch barriers fall.
# Drawing the cells themselves was tried and rejected: a 75% subset
# draw moved ii_sum, route_steps_sum and the serial work by 5-10%
# (interquartile range over seeds), more than the steadiness the
# regression bounds need.  Every cell maps and validates at this
# commit in well under its budget (slowest ~1.2 s of a 20 s budget);
# ``portfolio`` (a race) and ``cluster`` (the bigfabric layer) are out.
KERNELS_ALL = (
    "dot_product", "fir4", "horner", "iir_biquad", "mac4", "sobel_x",
    "diamonds3", "chain8", "sigmoid_pw", "vector_add_mem",
    "batch_norm_lite",
)
KERNELS_SMALL = ("dot_product", "vector_add_mem", "batch_norm_lite")
HEURISTICS = (
    "list_sched", "ultrafast", "regimap", "epimap", "himap", "crimson",
    "edge_centric", "ramp",
)
#: (name, arch, mappers, kernels) — one run_matrix call each per round
MATRIX_GROUPS = (
    ("wide", "simple4x4",
     HEURISTICS + ("sat", "csp", "dresc", "sa_spatial", "spr"),
     KERNELS_ALL),
    ("heavy", "simple4x4",
     ("ilp", "ilp_spatial", "bnb", "smt", "rl", "genmap", "qea",
      "graph_drawing", "graph_minor"),
     KERNELS_SMALL),
    ("hetero", "hetero4x4", HEURISTICS, KERNELS_ALL),
)
MATRIX_CELL_BUDGET_S = 20.0
#: measured seconds of one matrix round at jobs=2
MATRIX_ROUND_S = 1.05


def matrix_inputs(seed: int, seconds: float) -> dict[str, Any]:
    rng = random.Random(f"matrix:{seed}")
    rounds = max(1, round(seconds / MATRIX_ROUND_S))
    plan = []
    for r in range(rounds):
        groups = list(MATRIX_GROUPS)
        rng.shuffle(groups)
        for name, arch, mappers, kernels in groups:
            ms, ks = list(mappers), list(kernels)
            rng.shuffle(ms)
            rng.shuffle(ks)
            plan.append(
                {"round": r, "group": name, "arch": arch,
                 "mappers": ms, "kernels": ks}
            )
    return {"workload": "matrix", "seed": seed, "jobs": 2,
            "budget_s": MATRIX_CELL_BUDGET_S, "calls": plan}


# -- bigfabric ----------------------------------------------------------
# Why: serial cluster maps of 100-200-op chains on 16x16 and 32x32
# fabrics spend their time in partition / global_place / refine /
# route (cluster, partition, batchcost, routecore, spatial_common);
# the pool, the cache and the daemon do nothing here, so it is the
# "predicted no change" workload for every serving-side gain.  Each
# chain also gets one list_sched modulo map — the temporal reference
# the survey sets against spatial mapping on big fabrics — so the
# workload reports an achieved II (1 when the fabric out-sizes the
# chain) beside the spatial wirelength.  The seed draws each chain's
# generator seed; sizes and fabrics follow a fixed cycle, which keeps
# the work per run steady (chains of one size map in similar time
# whatever their seed).
BIG_ARCHS = ("simple16x16", "simple32x32")
BIG_SIZES = (100, 200, 150, 125, 175)
#: measured seconds of one chain (cluster + list_sched), averaged
BIG_INSTANCE_S = 1.0
#: the braided (width-2) tracked instance: every spatial mapper fails
#: it today; mapped outside the timed region, so progress on it shows
#: as a count without touching the timed work.
BRAIDED = ("layered:120:2:{s}", "simple16x16")


def bigfabric_inputs(seed: int, seconds: float) -> dict[str, Any]:
    rng = random.Random(f"bigfabric:{seed}")
    n = max(2, round(seconds / BIG_INSTANCE_S))
    instances = []
    for i in range(n):
        size = BIG_SIZES[(i // 2) % len(BIG_SIZES)]
        arch = BIG_ARCHS[i % 2]
        instances.append(
            {"kernel": f"layered:{size}:1:{rng.randrange(10**6)}",
             "arch": arch}
        )
    rng.shuffle(instances)
    braided_spec, braided_arch = BRAIDED
    return {
        "workload": "bigfabric", "seed": seed,
        "instances": instances,
        "braided": {"kernel": braided_spec.format(s=rng.randrange(10**6)),
                    "arch": braided_arch},
    }


# -- serve --------------------------------------------------------------
# Why: every request crosses validate, the daemon lock, pool dispatch
# and pickling, the worker, serialize, the socket and the disk cache,
# so the serving layers are on the critical path; the pool serves
# small latency-bound batches here instead of matrix's big ones.
#
# Popular problems repeat (in-batch dedup, cross-batch disk-cache
# hits); first-seen layered DFGs arrive as inline documents (cache
# misses and writes, inline-document validation).  First-seen
# requests use ms-scale heuristic mappers only: dresc on random DFGs
# costs ~0.8 s a request and would hide the serving layers.  None of
# these mappers failed on 700 random 6-14-op DFGs across the 4x4
# presets; epimap did (6 of 100), so it is out.
POPULAR = (
    ("fir4", "sat", "simple4x4"),
    ("mac4", "dresc", "simple4x4"),
    ("sobel_x", "sa_spatial", "simple4x4"),
    ("diamonds3", "spr", "simple4x4"),
    ("chain8", "graph_drawing", "simple4x4"),
    ("horner", "csp", "simple4x4"),
    ("iir_biquad", "edge_centric", "hetero4x4"),
    ("batch_norm_lite", "genmap", "simple4x4"),
    ("sigmoid_pw", "qea", "simple4x4"),
    ("dot_product", "list_sched", "hetero4x4"),
    ("vector_add_mem", "ilp_spatial", "simple4x4"),
    ("butterfly", "himap", "simple4x4"),
)
FRESH_MAPPERS = (
    "list_sched", "ultrafast", "regimap", "himap", "edge_centric",
    "crimson", "ramp",
)
FRESH_ARCHS = ("simple4x4", "hetero4x4", "adres4x4", "hycube4x4")
SERVE_CLIENTS = 2
#: batch sizes cycle through this multiset in a seeded order
SERVE_BATCH_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
#: first-seen DFG sizes cycle through this multiset
FRESH_SIZES = tuple(range(6, 15))
#: measured requests per second through the daemon for this mix
SERVE_REQ_PER_S = 140.0


def _cycle(rng: random.Random, items: tuple, n: int) -> list:
    """``n`` items: whole seeded shuffles of ``items``, so every item
    appears equally often (up to the last partial cycle)."""
    out: list = []
    while len(out) < n:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _popular_counts(n: int) -> list[int]:
    """Zipf-shaped request counts (item k weighted 1/(k+1)) summing to
    ``n``, by largest remainder: fixed for a given ``n``, so the
    repeated work does not vary with the seed."""
    weights = [1.0 / (k + 1) for k in range(len(POPULAR))]
    quotas = [n * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_rest = sorted(range(len(quotas)), key=lambda k: counts[k] - quotas[k])
    for k in by_rest[: n - sum(counts)]:
        counts[k] += 1
    return counts


def serve_inputs(seed: int, seconds: float) -> dict[str, Any]:
    from repro.core.serialize import dfg_to_doc
    from repro.ir import randdfg

    rng = random.Random(f"serve:{seed}")
    cycle = len(SERVE_BATCH_SIZES)
    mean = sum(SERVE_BATCH_SIZES) / cycle
    per_client = cycle * max(1, round(
        seconds * SERVE_REQ_PER_S / (mean * SERVE_CLIENTS * cycle)
    ))
    clients = []
    for c in range(SERVE_CLIENTS):
        sizes = _cycle(rng, SERVE_BATCH_SIZES, per_client)
        total = sum(sizes)
        # Exactly half the requests are popular repeats and half are
        # first-seen, in the seed's order.
        n_pop = total // 2
        n_fresh = total - n_pop
        kinds: list = [
            POPULAR[k]
            for k, n in enumerate(_popular_counts(n_pop)) for _ in range(n)
        ] + [None] * n_fresh
        rng.shuffle(kinds)
        fresh = zip(
            _cycle(rng, FRESH_SIZES, n_fresh),
            _cycle(rng, FRESH_MAPPERS, n_fresh),
            _cycle(rng, FRESH_ARCHS, n_fresh),
        )
        stream = []
        for j, popular in enumerate(kinds):
            rid = f"c{c}r{j}"
            if popular is not None:
                kernel, mapper, arch = popular
                stream.append({"id": rid, "kernel": kernel,
                               "mapper": mapper, "arch": arch})
                continue
            size, mapper, arch = next(fresh)
            g = randdfg.layered(
                size, width=2 + j % 2, seed=rng.randrange(10**9)
            )
            stream.append({"id": rid, "dfg": dfg_to_doc(g),
                           "mapper": mapper, "arch": arch})
        batches, pos = [], 0
        for size in sizes:
            batches.append(stream[pos:pos + size])
            pos += size
        clients.append(batches)
    return {"workload": "serve", "seed": seed, "jobs": 2,
            "clients": clients}


def digest(inputs: dict[str, Any]) -> str:
    """sha256 of the canonical JSON of a run's generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


GENERATORS = {
    "matrix": matrix_inputs,
    "bigfabric": bigfabric_inputs,
    "serve": serve_inputs,
}

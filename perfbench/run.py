"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {matrix,bigfabric,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from
``src/``.  Each run generates its inputs from ``--seed`` (see
``workloads.py``), sets up outside the clock, runs a fixed amount of
work sized from ``--seconds``, checks every produced mapping
(``checker.py``), prints a readable report, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` interleaves untraced and
traced rounds, reports the per-layer metrics from the traced ones,
the tracing overhead (traced minus untraced), and writes the
benchmark's spans plus the program's span trees as JSONL under
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import OUT, ROOT, SRC, Phase, SpanLog, median, peak_rss_mb, tail

#: fresh-process set-ups per run; their median is ``setup_s``
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0
WORKLOADS = ("matrix", "bigfabric", "serve")


def _spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _probe_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from process start to ready-to-time, in fresh processes
    (a second set-up in this process would find warm caches)."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed (exit {proc.returncode}): {line!r}"
            )
        out.append(ready)
    return out


def _summary(e2e: dict[str, Any]) -> dict[str, Any]:
    lat = e2e["latencies"]
    value, q, n = tail(lat) if lat else (0.0, 0.0, 0)
    return {
        "throughput_per_s": e2e["ops"] / e2e["wall_s"] if e2e["wall_s"] else 0.0,
        "latency_p50_ms": median(lat),
        "latency_tail_ms": value,
        "tail_q": q,
        "tail_n": n,
    }


def _print_phases(phases: list[Phase]) -> None:
    print("phase        attempted  succeeded  failed")
    for p in phases:
        print(f"{p.name:12s} {p.attempted:9d}  {p.succeeded:9d}  {p.failed:6d}")
        for note in p.notes:
            print(f"    {note}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import bigfabric
    import matrix
    import selftest
    import serve
    import workloads
    from repro.parallel import shutdown as pool_shutdown

    mod = {"matrix": matrix, "bigfabric": bigfabric, "serve": serve}[
        args.workload
    ]
    inputs = workloads.GENERATORS[args.workload](args.seed, args.seconds)

    if args.setup_only:
        mod.setup(inputs)
        print("ready", flush=True)
        pool_shutdown()
        return 0

    spec = _spec()
    trace_mode = bool(args.trace)
    digest = workloads.digest(inputs)
    print(f"workload {args.workload}: {mod.describe(inputs)}")
    print(f"seed {args.seed}; inputs sha256 {digest}")
    OUT.mkdir(exist_ok=True)
    manifest = OUT / f"manifest-{args.workload}-{args.seed}.json"
    manifest.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "inputs_sha256": digest,
         "inputs": inputs},
        sort_keys=True,
    ))
    spans = SpanLog(trace_mode)
    phases = {n: Phase(n) for n in ("setup", "timed", "check")}

    state: dict[str, Any] = {}
    try:
        if args.workload == "serve":
            state = serve.setup(inputs, args.seed)
            setup_samples = state["boots"]
        else:
            setup_samples = _probe_setup(args)
            state = mod.setup(inputs)
        for _ in setup_samples:
            phases["setup"].tally(True)
        result = mod.run(inputs, state, trace_mode=trace_mode, spans=spans)
    finally:
        if args.workload == "serve":
            serve.teardown(state)
        pool_shutdown()

    # A checker that no longer catches corruption cannot pass a run.
    checker_broken = selftest.failures()
    mod.check(result, state, args.seed)
    errors = []
    for op in result["ops"]:
        phases["timed"].tally(op.ok)
        phases["check"].tally(op.verdict is None, op.verdict or "")
        if op.verdict:
            errors.append(op.verdict)
    tracked = None
    if trace_mode and args.workload == "bigfabric":
        tracked = Phase("tracked")
        state["braided_ok"] = bigfabric.tracked_braided(inputs, tracked)

    attempted = len(result["ops"])
    failed = len(errors)
    rss = peak_rss_mb()
    setup_s = median(setup_samples)
    print(
        "setup_s samples: "
        + ", ".join(f"{s:.3f}" for s in setup_samples)
    )
    _print_phases(list(phases.values()) + ([tracked] if tracked else []))

    modes = (False, True) if trace_mode else (False,)
    summaries = {}
    for traced in modes:
        e2e = mod.end_to_end(result, traced)
        s = _summary(e2e)
        s.update(
            ok_share=e2e["ok"] / e2e["ops"] if e2e["ops"] else 0.0,
            ii_sum=float(e2e["ii_sum"]),
            route_steps_sum=float(e2e["route_steps_sum"]),
            ops=e2e["ops"],
        )
        summaries[traced] = s
        label = "traced" if traced else "untraced"
        print(
            f"{label}: {s['ops']} ops, throughput {s['throughput_per_s']:.3f}/s,"
            f" p50 {s['latency_p50_ms']:.3f} ms,"
            f" tail p{s['tail_q']:g} {s['latency_tail_ms']:.3f} ms"
            f" (n={s['tail_n']}), ok_share {s['ok_share']:.4f},"
            f" ii_sum {s['ii_sum']:g}, route_steps_sum"
            f" {s['route_steps_sum']:g}"
        )
    base = summaries[False]
    if base["tail_q"] >= 100.0:
        print(f"note: {base['tail_n']} latency samples support no tail"
              " percentile with ten samples beyond it; latency_tail_ms"
              " reports the maximum")

    if trace_mode:
        traced = summaries[True]
        layer = mod.per_layer(result, state, inputs)
        layer["trace.overhead_p50_ms"] = (
            traced["latency_p50_ms"] - base["latency_p50_ms"]
        )
        layer["trace.overhead_throughput_share"] = (
            base["throughput_per_s"] / traced["throughput_per_s"] - 1.0
            if traced["throughput_per_s"] else 0.0
        )
        print(
            f"tracing overhead: p50 {layer['trace.overhead_p50_ms']:+.3f} ms,"
            f" throughput {100 * layer['trace.overhead_throughput_share']:+.2f}%"
        )
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0.0) for m in wanted}
        print("per-layer metric                          value")
        for m in wanted:
            mark = "" if m["name"] in layer else "   (not exercised)"
            print(f"{m['name']:40s} {values[m['name']]:14.4f} {m['unit']}{mark}")
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        spans.write(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "inputs_sha256": digest, "inputs": manifest.name,
        })
        print(f"spans: {len(spans.records)} written to {trace_path}")
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        }
    else:
        values = dict(base, setup_s=setup_s, peak_rss_mb=rss)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    for err in errors[:10]:
        print(f"WRONG: {err}")
    for err in checker_broken:
        print(f"CHECKER SELF-TEST FAILED: {err}")
    print(json.dumps({
        "correct": failed == 0 and not checker_broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

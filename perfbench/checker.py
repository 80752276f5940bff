"""Output checks, run outside every timed region.

* every mapping is re-validated (``Mapping.validate``);
* every modulo mapping is simulated cycle-accurately and compared with
  the sequential interpreter on seeded input series and memory;
* served mapping documents are rebuilt with ``mapping_from_doc``, and
  a deduped response must be byte-identical to its primary;
* each matrix ok row must equal a serial re-map of the same cell in
  (II, schedule length, route steps).

Each function returns an error string, or None when the output holds.
"""

from __future__ import annotations

import copy
import json
import random
from typing import Any

from repro.check import oracles
from repro.core.mapping import Mapping
from repro.core.metrics import metrics_of
from repro.ir.dfg import DFG, Op
from repro.ir.interp import evaluate
from repro.sim.machine import simulate_mapping

#: iterations the semantic oracle observes
SIM_ITERS = 4
#: words per memory array; addresses are drawn well inside it
ARRAY_WORDS = 32


def _stimulus(
    dfg: DFG, rng: random.Random
) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Input series and memory arrays.  Graphs with memory operations
    take non-negative small inputs, which they use as addresses."""
    arrays = sorted({
        n.array for n in dfg.nodes()
        if n.op in (Op.LOAD, Op.STORE) and n.array
    })
    lo = 2 if arrays else -9
    inputs = {
        node.name: [rng.randint(lo, 9) for _ in range(SIM_ITERS)]
        for node in dfg.nodes()
        if node.op is Op.INPUT and node.name is not None
    }
    memory = {
        a: [rng.randint(-9, 9) for _ in range(ARRAY_WORDS)] for a in arrays
    }
    return inputs, memory


def check_mapping(
    mapping: Mapping, original: DFG, rng: random.Random
) -> str | None:
    """Structure, then (modulo only) semantics against the interpreter.

    ``original`` is the graph the caller asked to map: mappers may
    rewrite their own copy (ROUTE splits), so the reference comes from
    the caller's graph.  A stimulus on which the reference itself
    faults (division by zero, an address out of range) is redrawn;
    three such draws skip the semantic check (the mapping still had
    to validate).
    """
    violations = oracles.mapping_violations(mapping)
    if violations:
        return "invalid: " + "; ".join(violations[:3])
    if mapping.kind != "modulo":
        return None
    for _ in range(3):
        inputs, memory = _stimulus(original, rng)
        try:
            reference = evaluate(
                original, SIM_ITERS, inputs, memory=copy.deepcopy(memory)
            )
        except (ZeroDivisionError, IndexError):
            continue
        try:
            got = simulate_mapping(
                mapping, SIM_ITERS, inputs, memory=copy.deepcopy(memory)
            ).outputs
        except Exception as ex:  # a simulator crash is a wrong output
            return f"simulation crashed: {type(ex).__name__}: {ex}"
        if got != reference:
            return f"simulation: outputs {got} != reference {reference}"
        return None
    return None


def quality(mapping: Mapping) -> tuple[int | None, int, int]:
    """(II, schedule length, route steps) — what a matrix row reports."""
    met = metrics_of(mapping)
    return met.ii, met.schedule_length, met.route_steps


def check_served(
    resp: dict[str, Any], dfg: DFG, cgra: Any, rng: random.Random
) -> tuple[Mapping | None, str | None]:
    """Rebuild a served mapping document and check it."""
    from repro.core.exceptions import ValidationError
    from repro.core.serialize import mapping_from_doc

    try:
        mapping = mapping_from_doc(resp["mapping"], dfg, cgra)
    except (KeyError, ValueError, ValidationError) as ex:
        return None, f"mapping document rejected: {ex}"
    if resp.get("ii") != mapping.ii:
        return mapping, (
            f"response ii {resp.get('ii')} != document ii {mapping.ii}"
        )
    return mapping, check_mapping(mapping, dfg, rng)


def same_bytes(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Byte identity of two mapping documents as the daemon sends them
    (its NDJSON encoder sorts keys)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

"""Reference interpreter for data flow graphs.

The interpreter defines the *semantics* of a :class:`~repro.ir.dfg.DFG`
— every other executable artifact in the package (middle-end passes,
mappings, generated configuration contexts run on the simulator) is
checked against it.

Iteration semantics
-------------------

A DFG models one loop body.  Running it for ``n`` iterations evaluates
every node once per iteration, in topological order of the ``dist=0``
edges.  An edge with ``dist=k>0`` feeds the consumer at iteration ``i``
with the producer's value from iteration ``i-k``; for iterations where
``i-k < 0`` the *initial value* applies (0 by default, or whatever
``init`` supplies for that producer node).

``PHI`` nodes get special treatment: a PHI merges an initial value
(its ``dist=0`` operand) with a loop-carried value (its ``dist>0``
operand); it yields the former until the carried operand becomes
available.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.ir.dfg import DFG, DFGError, Edge, Op

__all__ = [
    "DFGInterpreter",
    "apply_op",
    "broadcast_series",
    "evaluate",
    "trunc_div",
]


def broadcast_series(value: Any, n: int, name: str) -> list[int]:
    """Broadcast a scalar to ``n`` iterations, or validate a sequence.

    Public contract shared by the interpreter and the cycle-accurate
    machine (:mod:`repro.sim.machine`): both feeds must agree on how an
    input specification becomes a per-iteration series.
    """
    if isinstance(value, (int, float)):
        return [int(value)] * n
    seq = list(value)
    if len(seq) < n:
        raise ValueError(
            f"input {name!r} provides {len(seq)} values for {n} iterations"
        )
    return [int(v) for v in seq[:n]]


def trunc_div(a: int, b: int) -> int:
    """C-style integer division: truncate toward zero, exact at any width.

    Implemented purely on integers — ``int(a / b)`` goes through a
    float and silently loses precision once the quotient exceeds 2**53.
    """
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def apply_op(op: Op, args: list[int]) -> int:
    """Evaluate a non-memory, non-pseudo op on integer arguments.

    This function *is* the operator semantics of the package: the
    sequential interpreter, the cycle-accurate machine and the
    constant folder all evaluate through it, so they cannot disagree
    on a single opcode.
    """
    a = args
    if op is Op.ADD:
        return a[0] + a[1]
    if op is Op.SUB:
        return a[0] - a[1]
    if op is Op.MUL:
        return a[0] * a[1]
    if op is Op.DIV:
        if a[1] == 0:
            raise ZeroDivisionError("DFG DIV by zero")
        return trunc_div(a[0], a[1])  # C-style truncation toward zero
    if op is Op.MOD:
        if a[1] == 0:
            raise ZeroDivisionError("DFG MOD by zero")
        return a[0] - trunc_div(a[0], a[1]) * a[1]  # sign of the dividend
    if op is Op.NEG:
        return -a[0]
    if op is Op.ABS:
        return abs(a[0])
    if op is Op.MIN:
        return min(a)
    if op is Op.MAX:
        return max(a)
    if op is Op.AND:
        return a[0] & a[1]
    if op is Op.OR:
        return a[0] | a[1]
    if op is Op.XOR:
        return a[0] ^ a[1]
    if op is Op.NOT:
        return ~a[0]
    if op is Op.SHL:
        return a[0] << (a[1] & 63)
    if op is Op.SHR:
        return a[0] >> (a[1] & 63)
    if op is Op.EQ:
        return int(a[0] == a[1])
    if op is Op.NE:
        return int(a[0] != a[1])
    if op is Op.LT:
        return int(a[0] < a[1])
    if op is Op.LE:
        return int(a[0] <= a[1])
    if op is Op.GT:
        return int(a[0] > a[1])
    if op is Op.GE:
        return int(a[0] >= a[1])
    if op is Op.SELECT:
        return a[1] if a[0] else a[2]
    if op is Op.ROUTE:
        return a[0]
    raise DFGError(f"cannot interpret op {op}")


class DFGInterpreter:
    """Evaluates a DFG over a number of loop iterations.

    Args:
        dfg: the graph to run (must pass ``dfg.check()``).
        memory: initial contents of named arrays for LOAD/STORE nodes;
            arrays grow on store to unseen addresses only if created as
            dicts — list-backed arrays bound-check.
        init: initial values for loop-carried edges, keyed by producer
            node id (default 0).
    """

    def __init__(
        self,
        dfg: DFG,
        memory: Mapping[str, Sequence[int]] | None = None,
        init: Mapping[int, int] | None = None,
    ) -> None:
        dfg.check()
        self.dfg = dfg
        self.memory: dict[str, list[int]] = {
            name: list(vals) for name, vals in (memory or {}).items()
        }
        self.init = dict(init or {})
        self._order = dfg.topo_order()

    def _carried_value(
        self, values: list[dict[int, int]], edge: Edge, it: int
    ) -> int | None:
        """Value over a dist>0 edge at iteration ``it`` (None if not yet)."""
        past = it - edge.dist
        if past < 0:
            return None
        return values[past][edge.src]

    def run(
        self,
        n_iters: int,
        inputs: Mapping[str, Any] | None = None,
    ) -> dict[str, list[int]]:
        """Run ``n_iters`` iterations; return OUTPUT series keyed by name.

        ``inputs`` maps INPUT node names to either a scalar (broadcast)
        or a per-iteration sequence.
        """
        dfg = self.dfg
        ins = {
            name: broadcast_series(v, n_iters, name)
            for name, v in (inputs or {}).items()
        }
        for node in dfg.nodes():
            if node.op is Op.INPUT and node.name not in ins:
                raise ValueError(f"missing input series for {node.name!r}")

        values: list[dict[int, int]] = []
        outputs: dict[str, list[int]] = {
            n.name or f"out{n.nid}": []
            for n in dfg.nodes()
            if n.op is Op.OUTPUT
        }

        for it in range(n_iters):
            cur: dict[int, int] = {}
            values.append(cur)
            for nid in self._order:
                node = dfg.node(nid)
                if node.op is Op.CONST:
                    cur[nid] = int(node.value)  # type: ignore[arg-type]
                    continue
                if node.op is Op.INPUT:
                    cur[nid] = ins[node.name][it]  # type: ignore[index]
                    continue

                # Predicated nodes (full predication): the last port
                # carries the predicate; a nullified op yields 0 and
                # performs no side effect.
                # Gather operands by port, honouring distances.
                args: list[int] = []
                carried_missing: list[int] = []
                by_port = sorted(dfg.in_edges(nid), key=lambda e: e.port)
                for e in by_port:
                    if e.dist == 0:
                        args.append(cur[e.src])
                    else:
                        v = self._carried_value(values, e, it)
                        if v is None:
                            carried_missing.append(e.port)
                            args.append(self.init.get(e.src, 0))
                        else:
                            args.append(v)

                enabled = True
                if node.pred is not None:
                    pred_val = args.pop()  # the extra trailing port
                    enabled = bool(pred_val) == node.pred

                if node.op is Op.PHI:
                    # PHI(initial, carried): yield the initial operand
                    # until the carried one exists.
                    carried_ports = [
                        e.port for e in by_port if e.dist > 0
                    ]
                    if not carried_ports:
                        raise DFGError(
                            f"PHI node {nid} has no loop-carried operand"
                        )
                    cport = carried_ports[0]
                    iport = 1 - cport
                    if cport in carried_missing:
                        cur[nid] = args[iport]
                    else:
                        cur[nid] = args[cport]
                    continue
                if node.op is Op.OUTPUT:
                    cur[nid] = args[0]
                    outputs[node.name or f"out{nid}"].append(args[0])
                    continue
                if not enabled:
                    cur[nid] = 0
                    continue
                if node.op is Op.LOAD:
                    arr = self._array(node.array, nid)
                    addr = args[0]
                    self._bounds(arr, addr, node, "load")
                    cur[nid] = arr[addr]
                    continue
                if node.op is Op.STORE:
                    arr = self._array(node.array, nid)
                    addr = args[0]
                    self._bounds(arr, addr, node, "store")
                    arr[addr] = args[1]
                    cur[nid] = args[1]
                    continue
                cur[nid] = apply_op(node.op, args)

        self._values = values
        return outputs

    def _array(self, name: str | None, nid: int) -> list[int]:
        if name is None:
            raise DFGError(f"memory node {nid} has no array name")
        if name not in self.memory:
            raise KeyError(f"array {name!r} not provided to interpreter")
        return self.memory[name]

    @staticmethod
    def _bounds(arr: list[int], addr: int, node, what: str) -> None:
        if not 0 <= addr < len(arr):
            raise IndexError(
                f"{what} at node {node.nid} ({node.array}[{addr}])"
                f" out of bounds (len {len(arr)})"
            )

    def value(self, nid: int, it: int = -1) -> int:
        """Value of node ``nid`` at iteration ``it`` of the last run."""
        return self._values[it][nid]


def evaluate(
    dfg: DFG,
    n_iters: int,
    inputs: Mapping[str, Any] | None = None,
    memory: Mapping[str, Sequence[int]] | None = None,
    init: Mapping[int, int] | None = None,
) -> dict[str, list[int]]:
    """One-shot convenience wrapper around :class:`DFGInterpreter`."""
    return DFGInterpreter(dfg, memory=memory, init=init).run(n_iters, inputs)

"""Scalar reference of the placement delta-cost evaluator.

:class:`ScalarDeltaCost` scores moves with python loops over edge
lists — the ``incident_edges`` discipline the numpy
:class:`repro.mappers.batchcost.VectorDeltaCost` replaced.  Both
compute in plain integers, so their results are bit-identical and a
seeded clustered-placer walk consumes the RNG identically on either:
``tests/mappers/test_cluster.py`` asserts identical accepted/rejected
move journals.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.ir.dfg import DFG
from repro.mappers.batchcost import STRETCH_PENALTY, DeltaCostEvaluator

__all__ = ["ScalarDeltaCost"]


class ScalarDeltaCost(DeltaCostEvaluator):
    """Python-loop backend of the delta-cost contract."""

    def __init__(self, dfg: DFG, cgra: CGRA) -> None:
        super().__init__(dfg, cgra)
        self._dist = cgra.distance_table()
        self._w = [1] * len(self.edges)
        self._all_eids = [
            sorted(set(se) | set(de))
            for se, de in zip(self._src_eids, self._dst_eids)
        ]

    def new_cells(self, binding: dict[int, int]) -> list[int]:
        return [binding[nid] for nid in self.nodes]

    def total(self, cells) -> int:
        return self.edges_cost(cells, range(len(self.edges)))

    def edges_cost(self, cells, eids) -> int:
        dist, w, idx = self._dist, self._w, self.index
        total = 0
        for eid in eids:
            e = self.edges[eid]
            d = dist[cells[idx[e.src]]][cells[idx[e.dst]]]
            if d > 1:
                total += w[eid] * (d - 1 + STRETCH_PENALTY)
        return total

    def move_deltas(self, cells, i: int, cands) -> list[int]:
        dist, w = self._dist, self._w
        old = cells[i]
        src_pairs = [
            (w[eid], cells[o])
            for eid, o in zip(self._src_eids[i], self._src_oth[i])
        ]
        dst_pairs = [
            (w[eid], cells[o])
            for eid, o in zip(self._dst_eids[i], self._dst_oth[i])
        ]
        P = STRETCH_PENALTY
        old_sum = sum(
            wt * (d - 1 + P)
            for wt, oc in src_pairs
            if (d := dist[old][oc]) > 1
        ) + sum(
            wt * (d - 1 + P)
            for wt, sc in dst_pairs
            if (d := dist[sc][old]) > 1
        )
        out = []
        for c in cands:
            new_sum = sum(
                wt * (d - 1 + P)
                for wt, oc in src_pairs
                if (d := dist[c][oc]) > 1
            ) + sum(
                wt * (d - 1 + P)
                for wt, sc in dst_pairs
                if (d := dist[sc][c]) > 1
            )
            out.append(new_sum - old_sum)
        return out

    def union_eids(self, i: int, j: int) -> list[int]:
        return sorted(set(self._all_eids[i]) | set(self._all_eids[j]))

    def bump_weight(self, eid: int, add: int = 1) -> None:
        self._w[eid] += add

    def stretched_edges(self, cells) -> list[int]:
        dist, idx = self._dist, self.index
        return [
            eid
            for eid, e in enumerate(self.edges)
            if dist[cells[idx[e.src]]][cells[idx[e.dst]]] > 1
        ]

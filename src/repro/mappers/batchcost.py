"""Batch delta-cost evaluation for spatial placement walks.

The annealing placers score a move by re-summing the wirelength terms
of the edges incident to the moved ops (:func:`repro.mappers
.spatial_common.spatial_cost` is per-edge, so everything else cancels).
At 4x4 scale a python loop over four edges is fine; at 16x16/32x32 the
walk proposes *batches* of candidate cells per move and the per-edge
python loop becomes the placer's hot path.

:class:`VectorDeltaCost` is the numpy evaluator: the binding lives in
a flat int64 cell array (the same flat, index-computed discipline as
the slot-major :class:`~repro.core.resources.Occupancy` arrays), the
all-pairs hop-distance table is a shared ``(n_cells, n_cells)`` int64
matrix, and a batch of K candidate cells for one op is scored as one
``(K, degree)`` fancy-indexed reduction.  It computes in plain
integers (hop distances and edge weights are integers), so it is
**bit-identical** — not approximately equal — to the python-loop
reference in ``tests/reference``; the equivalence suite asserts
identical accepted/rejected move sequences.

The numpy distance matrix is memoized at module level per architecture
fingerprint (bounded), mirroring the shared BFS table cache on
:meth:`repro.arch.cgra.CGRA.distance_table`: pool workers and
portfolio entrants racing on the same big fabric build it once.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.arch.cgra import CGRA
from repro.ir.dfg import DFG, Edge

__all__ = [
    "DeltaCostEvaluator",
    "VectorDeltaCost",
    "np_distance_matrix",
]

#: constant cost added per stretched (non-adjacent) edge — see
#: :class:`DeltaCostEvaluator`
STRETCH_PENALTY = 2

#: entries kept in the module-level numpy distance-matrix cache
_NP_DIST_CACHE_SIZE = 8

_np_dist_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()


def np_distance_matrix(cgra: CGRA) -> np.ndarray:
    """The all-pairs hop-distance table as a shared int64 matrix.

    Keyed by architecture fingerprint so equal fabrics (fresh preset
    instances, unpickled copies in pool workers) share one matrix; the
    cache is bounded LRU.  The matrix is read-only by convention.
    """
    from repro.cache.fingerprint import arch_fingerprint

    fp = arch_fingerprint(cgra)
    hit = _np_dist_cache.get(fp)
    if hit is not None:
        _np_dist_cache.move_to_end(fp)
        return hit
    mat = np.asarray(cgra.distance_table(), dtype=np.int64)
    _np_dist_cache[fp] = mat
    while len(_np_dist_cache) > _NP_DIST_CACHE_SIZE:
        _np_dist_cache.popitem(last=False)
    return mat


class DeltaCostEvaluator:
    """Shared precompute: node indexing, edge arrays, per-node incidence.

    The cost model is the spatial wirelength objective with integer
    per-edge weights, plus a constant penalty per *stretched* edge::

        term(d) = 0           if d <= 1
                  d - 1 + P   otherwise        (P = STRETCH_PENALTY)
        cost(cells) = sum over edges e of  w[e] * term(dist(src_cell, dst_cell))

    The wirelength part is :func:`repro.mappers.spatial_common
    .spatial_cost`; the penalty is new: every non-adjacent edge claims
    at least one dedicated route cell, and on a near-full fabric free
    cells — not hops — are the scarce resource, so the placer must
    prefer *zero* stretched edges over many slightly-short ones.

    Weights start at 1; the routing-repair loop raises the weight of
    edges the router could not realise, so the next refinement round
    pulls exactly those endpoints together.
    """

    def __init__(self, dfg: DFG, cgra: CGRA) -> None:
        self.dfg = dfg
        self.cgra = cgra
        self.nodes: list[int] = sorted(
            n.nid for n in dfg.nodes() if not n.op.is_pseudo
        )
        self.index: dict[int, int] = {
            nid: i for i, nid in enumerate(self.nodes)
        }
        self.edges: list[Edge] = [
            e
            for e in dfg.edges()
            if e.src != e.dst
            and e.src in self.index
            and e.dst in self.index
        ]
        self.edge_id: dict[Edge, int] = {
            e: i for i, e in enumerate(self.edges)
        }
        # Per node: edge ids where the node is the source / the dest,
        # and the *other* endpoint's node index, aligned.
        n = len(self.nodes)
        self._src_eids: list[list[int]] = [[] for _ in range(n)]
        self._src_oth: list[list[int]] = [[] for _ in range(n)]
        self._dst_eids: list[list[int]] = [[] for _ in range(n)]
        self._dst_oth: list[list[int]] = [[] for _ in range(n)]
        for eid, e in enumerate(self.edges):
            si, di = self.index[e.src], self.index[e.dst]
            self._src_eids[si].append(eid)
            self._src_oth[si].append(di)
            self._dst_eids[di].append(eid)
            self._dst_oth[di].append(si)
        #: per node index: the node indices it shares an edge with
        #: (sorted, deduped) — the walk's locality anchors
        self.neighbors: list[list[int]] = [
            sorted(set(so) | set(do))
            for so, do in zip(self._src_oth, self._dst_oth)
        ]

    # -- subclass interface -------------------------------------------
    def new_cells(self, binding: dict[int, int]):
        """The binding as this backend's flat node-indexed container."""
        raise NotImplementedError

    def total(self, cells) -> int:
        """Full weighted wirelength of ``cells``."""
        raise NotImplementedError

    def edges_cost(self, cells, eids) -> int:
        """Weighted wirelength restricted to the given edge ids."""
        raise NotImplementedError

    def move_deltas(self, cells, i: int, cands):
        """Cost deltas for relocating node index ``i`` to each candidate
        cell, as a sequence of ints aligned with ``cands``."""
        raise NotImplementedError

    def union_eids(self, i: int, j: int):
        """Sorted distinct edge ids incident to node indices i or j."""
        raise NotImplementedError

    def bump_weight(self, eid: int, add: int = 1) -> None:
        """Raise one edge's weight (routing-repair escalation)."""
        raise NotImplementedError

    def stretched_edges(self, cells) -> list[int]:
        """Edge ids whose endpoints are non-adjacent (term > 0)."""
        raise NotImplementedError


class VectorDeltaCost(DeltaCostEvaluator):
    """numpy backend: flat arrays, batched fancy-indexed reductions."""

    def __init__(self, dfg: DFG, cgra: CGRA) -> None:
        super().__init__(dfg, cgra)
        self._D = np_distance_matrix(cgra)
        m = len(self.edges)
        self._esrc = np.array(
            [self.index[e.src] for e in self.edges], dtype=np.int64
        ).reshape(m)
        self._edst = np.array(
            [self.index[e.dst] for e in self.edges], dtype=np.int64
        ).reshape(m)
        self._w = np.ones(m, dtype=np.int64)
        as_arr = lambda rows: [
            np.array(r, dtype=np.int64) for r in rows
        ]
        self._src_eids_np = as_arr(self._src_eids)
        self._src_oth_np = as_arr(self._src_oth)
        self._dst_eids_np = as_arr(self._dst_eids)
        self._dst_oth_np = as_arr(self._dst_oth)
        self._all_eids_np = [
            np.union1d(se, de)
            for se, de in zip(self._src_eids_np, self._dst_eids_np)
        ]

    def new_cells(self, binding: dict[int, int]) -> np.ndarray:
        return np.array(
            [binding[nid] for nid in self.nodes], dtype=np.int64
        )

    @staticmethod
    def _terms(d: np.ndarray) -> np.ndarray:
        return np.where(d > 1, d - 1 + STRETCH_PENALTY, 0)

    def total(self, cells) -> int:
        d = self._D[cells[self._esrc], cells[self._edst]]
        return int((self._w * self._terms(d)).sum())

    def edges_cost(self, cells, eids) -> int:
        eids = np.asarray(eids, dtype=np.int64)
        if eids.size == 0:
            return 0
        d = self._D[
            cells[self._esrc[eids]], cells[self._edst[eids]]
        ]
        return int((self._w[eids] * self._terms(d)).sum())

    def move_deltas(self, cells, i: int, cands) -> np.ndarray:
        D = self._D
        old = cells[i]
        oc = cells[self._src_oth_np[i]]  # cells of our consumers' side
        sc = cells[self._dst_oth_np[i]]  # cells of our producers' side
        ws = self._w[self._src_eids_np[i]]
        wd = self._w[self._dst_eids_np[i]]
        old_sum = (ws * self._terms(D[old, oc])).sum() + (
            wd * self._terms(D[sc, old])
        ).sum()
        cand = np.asarray(cands, dtype=np.int64)
        new = (
            ws[None, :] * self._terms(D[cand[:, None], oc[None, :]])
        ).sum(axis=1) + (
            wd[None, :] * self._terms(D[sc[None, :], cand[:, None]])
        ).sum(axis=1)
        return new - old_sum

    def union_eids(self, i: int, j: int) -> np.ndarray:
        return np.union1d(self._all_eids_np[i], self._all_eids_np[j])

    def bump_weight(self, eid: int, add: int = 1) -> None:
        self._w[eid] += add

    def stretched_edges(self, cells) -> list[int]:
        d = self._D[cells[self._esrc], cells[self._edst]]
        return [int(eid) for eid in np.nonzero(d > 1)[0]]


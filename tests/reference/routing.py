"""Reference route searches: dict + heapq, no flat arrays.

:class:`ReferenceRouter` is the original temporal route search of
:class:`repro.mappers.routing.Router` — layer-BFS for
:meth:`~ReferenceRouter.find` and a heap-ordered search for
:meth:`~ReferenceRouter.find_negotiated` over ``(cell, kind, layer)``
tuple states.  With ``prune=False`` (the default) it is the exhaustive
seed algorithm: plain BFS and plain Dijkstra.  With ``prune=True`` it
adds the admissible distance cut and the ``span - layer`` A* heuristic
the production engine always uses, so both the pruned and the
unpruned search stay executable specifications.  It shares only the
terminal-read rule (``_final_ok``) with the production router, so
"flat engine equals reference" asserts the search, not a copy of it.

:func:`route_negotiated` is the scalar body of
:func:`repro.mappers.spatial_common.route_negotiated`: the full
rip-up-and-reroute PathFinder schedule with a dict-keyed persistent
occupancy.  The flat engine with ``incremental=False`` replays it byte
for byte (same Dijkstra pop order, same paths, same dict order).
"""

from __future__ import annotations

import heapq

from repro.arch.tec import HOLD, ROUTE, Step
from repro.mappers.routing import Router
from repro.mappers.spatial_common import _negotiation_nets
from repro.obs.tracer import CANDIDATES_EXPLORED, get_tracer

__all__ = ["ReferenceRouter", "route_negotiated"]


class ReferenceRouter(Router):
    """The dict + heapq temporal route search (see module docstring)."""

    def __init__(self, cgra, *, allow_hold=True, prune=False):
        super().__init__(cgra, allow_hold=allow_hold)
        self.prune = prune
        self._reach = cgra.reach_lists()

    def find(self, occ, req):
        span = req.t_consume - req.t_emit - 1
        if span < 0:
            return None
        if span == 0:
            if self._final_ok(occ, req, Step(req.src_cell, req.t_emit, ROUTE)):
                return []
            return None
        dst = req.dst_cell
        dist_to = self._dist if self.prune else None
        if dist_to is not None and dist_to[req.src_cell][dst] > span + 1:
            return None  # unreachable within the time budget
        # BFS over time layers; states are (cell, kind-of-last-step).
        frontier = {(req.src_cell, ROUTE): []}
        explored = 0
        for k in range(span):
            t = req.t_emit + 1 + k
            last = k == span - 1
            # After the step of this layer, span-1-k layers remain plus
            # the terminal-read hop: admissible bound span - k.
            allowed = span - k
            nxt = {}
            for (cell, kind), path in frontier.items():
                for step in self._expansions(occ, req.value, cell, t):
                    if dist_to is not None and dist_to[step.cell][dst] > allowed:
                        continue
                    explored += 1
                    key = (step.cell, step.kind)
                    if key in nxt:
                        continue
                    cand = path + [step]
                    if last and self._final_ok(occ, req, step):
                        get_tracer().count(CANDIDATES_EXPLORED, explored)
                        return cand
                    nxt[key] = cand
            if not nxt:
                break
            frontier = nxt
        get_tracer().count(CANDIDATES_EXPLORED, explored)
        return None

    def _expansions(self, occ, value, cell, t):
        """Feasible single steps leaving ``cell`` at cycle ``t``.

        Holds come first: parking in the RF is cheaper than burning an
        FU/bypass slot on a same-cell re-emission, and BFS keeps the
        first path found among equals.
        """
        if self.allow_hold and occ.can_hold(value, cell, t):
            yield Step(cell, t, HOLD)
        for nxt in self._reach[cell]:
            if nxt != cell and not occ.can_use_link(value, cell, nxt, t):
                continue
            if occ.can_route(value, nxt, t):
                yield Step(nxt, t, ROUTE)

    def find_negotiated(self, occ, req, *, history=None, penalty=10.0):
        span = req.t_consume - req.t_emit - 1
        if span < 0:
            return None
        history = history or {}

        def step_cost(step):
            key = (step.cell, occ.slot(step.time), step.kind)
            base = 1.0 + history.get(key, 0.0)
            free = (
                occ.can_hold(req.value, step.cell, step.time)
                if step.kind == HOLD
                else occ.can_route(req.value, step.cell, step.time)
            )
            return base if free else base + penalty

        if span == 0:
            if self._final_ok(occ, req, Step(req.src_cell, req.t_emit, ROUTE)):
                return [], 0.0
            return None
        dst = req.dst_cell
        dist_to = self._dist if self.prune else None
        if dist_to is not None and dist_to[req.src_cell][dst] > span + 1:
            return None
        # Heap keys (f, g, state): f = g + h with h = span - layer when
        # pruning (A*: every remaining layer costs >= 1), h = 0 without
        # (plain Dijkstra on (g, state)).
        start = (req.src_cell, ROUTE, 0)
        dist = {start: 0.0}
        prev = {start: None}
        steps_at = {start: None}
        heap = [(float(span) if self.prune else 0.0, 0.0, start)]
        best = None
        explored = 0
        while heap:
            _f, d, state = heapq.heappop(heap)
            if d > dist.get(state, float("inf")):
                continue
            explored += 1
            cell, kind, layer = state
            if layer == span:
                # Terminal discipline == _final_ok: the terminal link
                # must exist *and* be free for this value.
                last = steps_at[state]
                if last is not None and self._final_ok(occ, req, last):
                    best = state
                    break
                continue
            t = req.t_emit + 1 + layer
            candidates = [
                Step(nxt, t, ROUTE) for nxt in self._reach[cell]
            ] + [Step(cell, t, HOLD)]
            nlayer = layer + 1
            h = float(span - nlayer) if self.prune else 0.0
            for step in candidates:
                if (
                    dist_to is not None
                    and dist_to[step.cell][dst] > span - layer
                ):
                    continue
                nd = d + step_cost(step)
                ns = (step.cell, step.kind, nlayer)
                if nd < dist.get(ns, float("inf")):
                    dist[ns] = nd
                    prev[ns] = state
                    steps_at[ns] = step
                    heapq.heappush(heap, (nd + h, nd, ns))
        get_tracer().count(CANDIDATES_EXPLORED, explored)
        if best is None:
            return None
        out = []
        s = best
        while s is not None and steps_at[s] is not None:
            out.append(steps_at[s])
            s = prev[s]
        out.reverse()
        return out, dist[best]


def route_negotiated(dfg, cgra, binding, *, max_iters=16):
    """Scalar PathFinder negotiation over a spatial binding.

    Full schedule: every iteration rips up and re-routes every net by
    Dijkstra against everyone else's current path; present congestion
    grows per iteration and contested cells accumulate history cost.
    """
    edges = _negotiation_nets(dfg, cgra, binding)
    if not edges:
        return {}
    op_cells = set(binding.values())
    hist = {}
    paths = {}
    # Persistent occupancy: cell -> value -> number of paths through.
    # Counts (not a set) so ripping up one edge of a fan-out does not
    # erase its sibling's claim on a shared cell.
    occ = {}

    def claim(path, value, add):
        for c in path:
            counts = occ.setdefault(c, {})
            if add:
                counts[value] = counts.get(value, 0) + 1
            else:
                counts[value] -= 1
                if not counts[value]:
                    del counts[value]

    def dijkstra(src, dst, value, pressure):
        def enter_cost(cell):
            if cell in op_cells:
                return None
            counts = occ.get(cell)
            n_others = sum(1 for v in counts if v != value) if counts else 0
            return 1.0 + hist.get(cell, 0.0) + pressure * n_others

        dist = {}
        prev = {}
        heap = []
        for n in cgra.neighbors_out(src):
            c = enter_cost(n)
            if c is not None and n not in dist:
                dist[n] = c
                prev[n] = -1
                heapq.heappush(heap, (c, n, -1))
        while heap:
            d, cur, _ = heapq.heappop(heap)
            if d > dist.get(cur, float("inf")):
                continue
            if cgra.has_link(cur, dst):
                chain = [cur]
                while prev[chain[-1]] != -1:
                    chain.append(prev[chain[-1]])
                chain.reverse()
                return chain
            for n in cgra.neighbors_out(cur):
                c = enter_cost(n)
                if c is None:
                    continue
                nd = d + c
                if nd < dist.get(n, float("inf")):
                    dist[n] = nd
                    prev[n] = cur
                    heapq.heappush(heap, (nd, n, cur))
        return None

    for it in range(max_iters):
        pressure = 1.0 + 2.0 * it
        for e in edges:
            old = paths.get(e)
            if old is not None:
                claim(old, e.src, add=False)
            path = dijkstra(binding[e.src], binding[e.dst], e.src, pressure)
            if path is None:
                return None  # walled off: no path at any price
            paths[e] = path
            claim(path, e.src, add=True)
        over = [c for c, counts in occ.items() if len(counts) > 1]
        if not over:
            return {
                e: [Step(c, i, ROUTE) for i, c in enumerate(p)]
                for e, p in paths.items()
            }
        for c in over:
            hist[c] = hist.get(c, 0.0) + float(len(occ[c]) - 1)
    return None

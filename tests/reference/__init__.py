"""Test oracles: the reference engines the production hot paths replaced.

Each production hot path in ``repro`` has one engine.  The simpler
implementations it is checked against live here, outside the runtime
package, behind no ``engine=`` switch:

* :class:`~reference.occupancy.DictOccupancy` — dict/Counter resource
  accounting (vs the flat-array :class:`repro.core.resources.Occupancy`);
* :class:`~reference.routing.ReferenceRouter` — dict + heapq temporal
  route search, pruned or exhaustive (vs the flat
  :class:`repro.mappers.routing.Router`);
* :func:`~reference.routing.route_negotiated` — the scalar PathFinder
  schedule (vs :func:`repro.mappers.routecore.negotiate_spatial`);
* :class:`~reference.batchcost.ScalarDeltaCost` — python-loop move
  scoring (vs :class:`repro.mappers.batchcost.VectorDeltaCost`);
* :class:`~reference.sat.DPLLSolver` and
  :class:`~reference.sat.DPLLSATMapper` — chronological DPLL and a
  fresh-encoding SAT mapper (vs CDCL and the incremental
  :class:`repro.mappers.sat_mapper.SATMapper`).

The equivalence suites import this package through the ``pythonpath``
entry in ``pyproject.toml``; the benchmarks put ``tests/`` on
``sys.path`` themselves.  Nothing under ``src/repro`` may import it.
"""

from reference.batchcost import ScalarDeltaCost
from reference.occupancy import DictOccupancy
from reference.routing import ReferenceRouter, route_negotiated
from reference.sat import DPLLSATMapper, DPLLSolver

__all__ = [
    "DictOccupancy",
    "DPLLSATMapper",
    "DPLLSolver",
    "ReferenceRouter",
    "ScalarDeltaCost",
    "route_negotiated",
]

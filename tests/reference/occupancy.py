"""Dict-keyed reference of the :class:`repro.core.resources.Occupancy` contract.

The original tuple-keyed ``dict``/``Counter`` resource accounting, kept
as an executable specification of the flat-array implementation:
``tests/core/test_equivalence.py`` drives both through identical
operation sequences and whole mapper runs, and
``benchmarks/bench_hotpath.py`` measures the flat speedup against it.
The two must keep identical observable semantics; when the contract
changes, change both (the suite fails loudly otherwise).
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.arch.cgra import CGRA

__all__ = ["DictOccupancy"]


class DictOccupancy:
    """Dict-keyed reference of the Occupancy contract (slow path)."""

    def __init__(self, cgra: CGRA, ii: int | None = None) -> None:
        self.cgra = cgra
        self.ii = ii
        # (cell, slot) -> op node id occupying the FU.
        self.fu: dict[tuple[int, int], int] = {}
        # (cell, slot) -> value -> refcount (shares fu or bypass).
        self.routed: dict[tuple[int, int], Counter] = defaultdict(Counter)
        # (cell, slot) -> value -> refcount of RF holds.
        self.rf: dict[tuple[int, int], Counter] = defaultdict(Counter)
        # (src, dst, slot) -> value -> refcount on the link.
        self.link: dict[tuple[int, int, int], Counter] = defaultdict(Counter)

    def slot(self, t: int) -> int:
        return t % self.ii if self.ii else t

    # -- functional units ----------------------------------------------
    def can_place_op(self, cell: int, t: int) -> bool:
        key = (cell, self.slot(t))
        if key in self.fu:
            return False
        if self.cgra.route_shares_fu and self.routed.get(key):
            return False
        return True

    def place_op(self, nid: int, cell: int, t: int) -> None:
        self.fu[(cell, self.slot(t))] = nid

    def release_op(self, cell: int, t: int) -> None:
        self.fu.pop((cell, self.slot(t)), None)

    def op_at(self, cell: int, t: int) -> int | None:
        return self.fu.get((cell, self.slot(t)))

    # -- routing --------------------------------------------------------
    def can_route(self, value: int, cell: int, t: int) -> bool:
        key = (cell, self.slot(t))
        if value in self.routed[key]:
            return True
        if self.cgra.route_shares_fu:
            return key not in self.fu and not self.routed[key]
        return len(self.routed[key]) < self.cgra.bypass_capacity

    def add_route(self, value: int, cell: int, t: int) -> None:
        self.routed[(cell, self.slot(t))][value] += 1

    def release_route(self, value: int, cell: int, t: int) -> None:
        key = (cell, self.slot(t))
        self.routed[key][value] -= 1
        if self.routed[key][value] <= 0:
            del self.routed[key][value]

    # -- register-file holds -------------------------------------------
    def can_hold(self, value: int, cell: int, t: int) -> bool:
        key = (cell, self.slot(t))
        if value in self.rf[key]:
            return True
        return len(self.rf[key]) < self.cgra.cell(cell).rf_size

    def add_hold(self, value: int, cell: int, t: int) -> None:
        self.rf[(cell, self.slot(t))][value] += 1

    def release_hold(self, value: int, cell: int, t: int) -> None:
        key = (cell, self.slot(t))
        self.rf[key][value] -= 1
        if self.rf[key][value] <= 0:
            del self.rf[key][value]

    # -- links ----------------------------------------------------------
    def can_use_link(self, value: int, src: int, dst: int, t: int) -> bool:
        key = (src, dst, self.slot(t))
        users = self.link[key]
        return value in users or not users

    def add_link(self, value: int, src: int, dst: int, t: int) -> None:
        self.link[(src, dst, self.slot(t))][value] += 1

    def release_link(self, value: int, src: int, dst: int, t: int) -> None:
        key = (src, dst, self.slot(t))
        self.link[key][value] -= 1
        if self.link[key][value] <= 0:
            del self.link[key][value]

    # -- introspection (mirror of the flat API) ------------------------
    def holds_at(self, cell: int, t: int) -> set[int]:
        return set(self.rf.get((cell, self.slot(t)), ()))

    def routed_at(self, cell: int, t: int) -> set[int]:
        return set(self.routed.get((cell, self.slot(t)), ()))

    def link_users(self, src: int, dst: int, t: int) -> set[int]:
        return set(self.link.get((src, dst, self.slot(t)), ()))

    # ------------------------------------------------------------------
    def used_entries(self) -> int:
        return (
            len(self.fu)
            + sum(1 for v in self.routed.values() if v)
            + sum(1 for v in self.rf.values() if v)
            + sum(1 for v in self.link.values() if v)
        )

    def pressure(self) -> float:
        """Mean occupied slots per resource class (same as the flat
        implementation — the documented contract)."""
        return self.used_entries() / 4

    def copy(self) -> "DictOccupancy":
        out = DictOccupancy(self.cgra, self.ii)
        out.fu = dict(self.fu)
        out.routed = defaultdict(
            Counter, {k: Counter(v) for k, v in self.routed.items()}
        )
        out.rf = defaultdict(
            Counter, {k: Counter(v) for k, v in self.rf.items()}
        )
        out.link = defaultdict(
            Counter, {k: Counter(v) for k, v in self.link.items()}
        )
        return out

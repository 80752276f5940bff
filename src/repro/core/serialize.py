"""Mapping (and DFG) serialization.

A framework is only adoptable if its artifacts travel: tool A maps,
tool B simulates, a colleague inspects.  This module round-trips a
:class:`~repro.core.mapping.Mapping` through plain JSON — binding,
schedule, routes, II, dual-issue pairs — with enough architecture and
DFG fingerprinting to refuse loading against the wrong substrate.

The DFG and CGRA themselves are *not* serialized in a mapping doc
(they are code-level objects with factories); the fingerprint ties a
mapping file to the (dfg, cgra) pair it was produced for.  Since
format 2 the fingerprint is the canonical one from
:mod:`repro.cache.fingerprint`: the DFG half is isomorphism-invariant,
and the architecture half covers everything that affects feasibility
(context depth, RF sizes, memory ports, routing discipline) — format 1
hashed rendered text and silently collided on presets differing only
in ``n_contexts``.

The dict-level entry points (:func:`mapping_to_doc` /
:func:`mapping_from_doc`) accept an optional ``node_map`` that
relabels node ids on the way through; the mapping cache uses it to
store documents in canonical-id space so one entry replays onto any
isomorphic DFG regardless of node numbering.

Documents arriving over the wire (``repro serve``) are attacker- and
truncation-shaped, so :func:`mapping_from_doc` validates structure
before touching a field and raises :class:`ValueError` naming the
offending key (``mapping document: routes[3].edge ...``) instead of
leaking a raw ``KeyError``/``TypeError`` from the middle of
reconstruction.

:func:`dfg_to_doc`/:func:`dfg_from_doc` round-trip a
:class:`~repro.ir.dfg.DFG` itself — the inline problem form a mapping
*request* carries when the kernel is not in the library.
"""

from __future__ import annotations

import json
from typing import Any, Mapping as MappingT

from repro.arch.cgra import CGRA
from repro.arch.tec import Step
from repro.core.mapping import Mapping
from repro.ir.dfg import DFG, DFGError, Op

__all__ = [
    "dfg_from_doc",
    "dfg_to_doc",
    "fingerprint",
    "mapping_from_doc",
    "mapping_from_json",
    "mapping_to_doc",
    "mapping_to_json",
]

FORMAT_VERSION = 2

#: Mapping kinds a document may declare (see :class:`Mapping`).
_KINDS = ("spatial", "modulo")


def fingerprint(dfg: DFG, cgra: CGRA) -> str:
    """A stable digest of the (application, architecture) pair.

    Isomorphism-invariant over the DFG and exhaustive over the
    architecture parameters that affect feasibility.
    """
    # Imported lazily: repro.cache.store serializes through this module.
    from repro.cache.fingerprint import problem_fingerprint

    return problem_fingerprint(dfg, cgra)


def _ident(nid: int) -> int:
    return nid


def mapping_to_doc(
    mapping: Mapping, *, node_map: MappingT[int, int] | None = None
) -> dict[str, Any]:
    """Serialize a mapping (of either kind) to a plain-JSON dict.

    ``node_map`` relabels every node id in the document (binding and
    schedule keys, route edge endpoints, dual-issue pairs); identity
    when omitted.
    """
    nm = node_map.__getitem__ if node_map is not None else _ident
    return {
        "format": FORMAT_VERSION,
        "fingerprint": fingerprint(mapping.dfg, mapping.cgra),
        "dfg": mapping.dfg.name,
        "cgra": mapping.cgra.name,
        "kind": mapping.kind,
        "ii": mapping.ii,
        "mapper": mapping.mapper,
        "binding": {str(nm(k)): v for k, v in mapping.binding.items()},
        "schedule": {str(nm(k)): v for k, v in mapping.schedule.items()},
        "routes": [
            {
                "edge": [nm(e.src), nm(e.dst), e.port, e.dist],
                "steps": [[s.cell, s.time, s.kind] for s in steps],
            }
            for e, steps in mapping.routes.items()
        ],
        "coexec": [sorted(nm(n) for n in p) for p in mapping.coexec],
    }


# ---------------------------------------------------------------------------
# Document validation
# ---------------------------------------------------------------------------
def _doc_error(field: str, detail: str) -> ValueError:
    return ValueError(f"mapping document: {field} {detail}")


def _require(doc: dict[str, Any], field: str) -> Any:
    if field not in doc:
        raise _doc_error(field, "is missing")
    return doc[field]


def _int_or_fail(value: Any, field: str) -> int:
    # bool is an int subclass but never a legal id/cycle/port value.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _doc_error(field, f"must be an integer, got {value!r}")
    return value


def _int_keyed(value: Any, field: str) -> dict[int, int]:
    """Parse a ``{"<node id>": int}`` JSON object."""
    if not isinstance(value, dict):
        raise _doc_error(field, f"must be an object, got {type(value).__name__}")
    out: dict[int, int] = {}
    for key, val in value.items():
        try:
            nid = int(key)
        except (TypeError, ValueError):
            raise _doc_error(
                field, f"has non-integer node id key {key!r}"
            ) from None
        out[nid] = _int_or_fail(val, f"{field}[{key!r}]")
    return out


def _checked_routes(value: Any) -> list[tuple[tuple, list]]:
    """Validate the ``routes`` array shape; returns (edge, steps) pairs."""
    if not isinstance(value, list):
        raise _doc_error(
            "routes", f"must be an array, got {type(value).__name__}"
        )
    out: list[tuple[tuple, list]] = []
    for i, entry in enumerate(value):
        where = f"routes[{i}]"
        if not isinstance(entry, dict):
            raise _doc_error(
                where, f"must be an object, got {type(entry).__name__}"
            )
        edge = entry.get("edge")
        if not isinstance(edge, (list, tuple)) or len(edge) != 4:
            raise _doc_error(
                f"{where}.edge",
                f"must be a [src, dst, port, dist] list, got {edge!r}",
            )
        src, dst, port, dist = (
            _int_or_fail(v, f"{where}.edge[{j}]") for j, v in enumerate(edge)
        )
        steps = entry.get("steps")
        if not isinstance(steps, list):
            raise _doc_error(
                f"{where}.steps",
                f"must be an array, got {type(steps).__name__}",
            )
        checked_steps = []
        for j, step in enumerate(steps):
            if not isinstance(step, (list, tuple)) or len(step) != 3:
                raise _doc_error(
                    f"{where}.steps[{j}]",
                    f"must be a [cell, time, kind] triple, got {step!r}",
                )
            cell = _int_or_fail(step[0], f"{where}.steps[{j}][0]")
            time_ = _int_or_fail(step[1], f"{where}.steps[{j}][1]")
            kind = step[2]
            if not isinstance(kind, str):
                raise _doc_error(
                    f"{where}.steps[{j}][2]",
                    f"must be a step-kind string, got {kind!r}",
                )
            checked_steps.append((cell, time_, kind))
        out.append(((src, dst, port, dist), checked_steps))
    return out


def mapping_from_doc(
    doc: dict[str, Any],
    dfg: DFG,
    cgra: CGRA,
    *,
    node_map: MappingT[int, int] | None = None,
    verify: bool = True,
    validate: bool = True,
) -> Mapping:
    """Rebuild a mapping against its (dfg, cgra) pair from a dict.

    The document's structure is checked field by field first — a
    malformed or truncated doc raises :class:`ValueError` naming the
    offending key, never a raw ``KeyError``/``TypeError`` (documents
    arrive over the wire in ``repro serve``).  Raises ValueError when
    the document's fingerprint does not match the supplied substrate
    (unless ``verify=False``), or on an unknown format version.
    ``node_map`` translates the document's node ids into the live
    DFG's (identity when omitted); the result is re-validated before
    returning unless ``validate=False``.  A document that is well
    formed but describes an illegal mapping (say, a shifted schedule
    slot) fails that re-validation with
    :class:`~repro.core.exceptions.ValidationError`, which is *not* a
    ``ValueError`` subclass: callers rebuilding untrusted documents
    catch both.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            "mapping document: expected a JSON object,"
            f" got {type(doc).__name__}"
        )
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported mapping format {doc.get('format')!r}"
        )
    fp = _require(doc, "fingerprint")
    if not isinstance(fp, str):
        raise _doc_error("fingerprint", f"must be a string, got {fp!r}")
    if verify and fp != fingerprint(dfg, cgra):
        raise ValueError(
            "mapping fingerprint mismatch: this file was produced for"
            f" a different (DFG, CGRA) pair (file: {doc.get('dfg')!r} on"
            f" {doc.get('cgra')!r})"
        )
    kind = _require(doc, "kind")
    if kind not in _KINDS:
        raise _doc_error("kind", f"must be one of {_KINDS}, got {kind!r}")
    ii = _require(doc, "ii")
    if ii is not None:
        ii = _int_or_fail(ii, "ii")
        if ii < 1:
            raise _doc_error("ii", f"must be >= 1, got {ii}")
    binding = _int_keyed(_require(doc, "binding"), "binding")
    schedule = _int_keyed(_require(doc, "schedule"), "schedule")
    route_entries = _checked_routes(_require(doc, "routes"))
    coexec_doc = doc.get("coexec", [])
    if not isinstance(coexec_doc, list):
        raise _doc_error(
            "coexec", f"must be an array, got {type(coexec_doc).__name__}"
        )
    for i, pair in enumerate(coexec_doc):
        if not isinstance(pair, list):
            raise _doc_error(
                f"coexec[{i}]", f"must be an array, got {pair!r}"
            )
        for j, n in enumerate(pair):
            _int_or_fail(n, f"coexec[{i}][{j}]")

    nm = node_map.__getitem__ if node_map is not None else _ident

    def remap(nid: int, field: str) -> int:
        try:
            return nm(nid)
        except KeyError:
            raise _doc_error(
                field, f"references unknown node id {nid}"
            ) from None

    from repro.ir.dfg import Edge

    routes = {}
    for i, ((src, dst, port, dist), steps) in enumerate(route_entries):
        edge = Edge(
            remap(src, f"routes[{i}].edge"),
            remap(dst, f"routes[{i}].edge"),
            port=port,
            dist=dist,
        )
        routes[edge] = [Step(cell, time, kind) for cell, time, kind in steps]
    mapping = Mapping(
        dfg,
        cgra,
        kind=kind,
        binding={remap(k, "binding"): v for k, v in binding.items()},
        schedule={remap(k, "schedule"): v for k, v in schedule.items()},
        routes=routes,
        ii=ii,
        mapper=doc.get("mapper", "?"),
        coexec={
            frozenset(remap(n, f"coexec[{i}]") for n in pair)
            for i, pair in enumerate(coexec_doc)
        },
    )
    if validate:
        mapping.validate()
    return mapping


def mapping_to_json(mapping: Mapping, *, indent: int | None = 2) -> str:
    """Serialize a mapping (of either kind) to a JSON string."""
    return json.dumps(
        mapping_to_doc(mapping), indent=indent, sort_keys=True
    )


def mapping_from_json(
    text: str, dfg: DFG, cgra: CGRA, *, verify: bool = True
) -> Mapping:
    """Rebuild a mapping against its (dfg, cgra) pair from JSON text."""
    return mapping_from_doc(json.loads(text), dfg, cgra, verify=verify)


# ---------------------------------------------------------------------------
# DFG documents (inline problem graphs in serve requests)
# ---------------------------------------------------------------------------
def dfg_to_doc(dfg: DFG) -> dict[str, Any]:
    """Serialize a DFG to a plain-JSON dict.

    Node ids are preserved exactly (a mapping produced for the doc
    replays onto the original graph without relabeling).
    """
    return {
        "name": dfg.name,
        "nodes": [
            {
                "id": n.nid,
                "op": n.op.value,
                **({"name": n.name} if n.name is not None else {}),
                **({"value": n.value} if n.value is not None else {}),
                **({"array": n.array} if n.array is not None else {}),
                **({"pred": n.pred} if n.pred is not None else {}),
            }
            for n in sorted(dfg.nodes(), key=lambda n: n.nid)
        ],
        "edges": [
            [e.src, e.dst, e.port, e.dist] for e in sorted(
                dfg.edges(), key=lambda e: (e.src, e.dst, e.port, e.dist)
            )
        ],
    }


def _dfg_error(field: str, detail: str) -> ValueError:
    return ValueError(f"dfg document: {field} {detail}")


def dfg_from_doc(doc: dict[str, Any]) -> DFG:
    """Rebuild a DFG from :func:`dfg_to_doc`'s form.

    Validates structure with field-naming :class:`ValueError` (the doc
    arrives over the wire in serve requests) and runs
    :meth:`~repro.ir.dfg.DFG.check` on the result.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"dfg document: expected a JSON object, got {type(doc).__name__}"
        )
    name = doc.get("name", "dfg")
    if not isinstance(name, str):
        raise _dfg_error("name", f"must be a string, got {name!r}")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list):
        raise _dfg_error(
            "nodes", f"must be an array, got {type(nodes).__name__}"
        )
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise _dfg_error(
            "edges", f"must be an array, got {type(edges).__name__}"
        )
    dfg = DFG(name)
    seen: set[int] = set()
    for i, entry in enumerate(nodes):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise _dfg_error(
                where, f"must be an object, got {type(entry).__name__}"
            )
        nid = entry.get("id")
        if isinstance(nid, bool) or not isinstance(nid, int) or nid < 0:
            raise _dfg_error(
                f"{where}.id", f"must be a non-negative integer, got {nid!r}"
            )
        if nid in seen:
            raise _dfg_error(f"{where}.id", f"{nid} appears twice")
        seen.add(nid)
        opname = entry.get("op")
        try:
            op = Op(opname)
        except ValueError:
            raise _dfg_error(
                f"{where}.op", f"unknown opcode {opname!r}"
            ) from None
        for key, types in (
            ("name", str), ("array", str), ("value", int), ("pred", bool)
        ):
            val = entry.get(key)
            if val is not None and not isinstance(val, types):
                raise _dfg_error(
                    f"{where}.{key}",
                    f"must be a {types.__name__}, got {val!r}",
                )
        from repro.ir.dfg import Node

        dfg._nodes[nid] = Node(
            nid, op,
            name=entry.get("name"),
            value=entry.get("value"),
            array=entry.get("array"),
            pred=entry.get("pred"),
        )
        dfg._out[nid] = []
        dfg._in[nid] = []
    dfg._next_id = max(seen, default=-1) + 1
    for i, entry in enumerate(edges):
        where = f"edges[{i}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise _dfg_error(
                where, f"must be a [src, dst, port, dist] list, got {entry!r}"
            )
        src, dst, port, dist = entry
        for label, v in (("src", src), ("dst", dst), ("port", port),
                         ("dist", dist)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise _dfg_error(
                    f"{where}.{label}", f"must be an integer, got {v!r}"
                )
        try:
            dfg.connect(src, dst, port=port, dist=dist)
        except DFGError as ex:
            raise _dfg_error(where, str(ex)) from None
    try:
        dfg.check()
    except DFGError as ex:
        raise ValueError(f"dfg document: {ex}") from None
    return dfg

"""Mapping JSON round-trip tests, the corrupted-document corpus, and
the DFG document codec used by serve requests."""

import copy
import json

import pytest

from repro.api import map_dfg
from repro.arch import presets
from repro.core.exceptions import ValidationError
from repro.core.serialize import (
    dfg_from_doc,
    dfg_to_doc,
    fingerprint,
    mapping_from_doc,
    mapping_from_json,
    mapping_to_doc,
    mapping_to_json,
)
from repro.ir import kernels


@pytest.fixture(scope="module")
def setup():
    dfg = kernels.sobel_x()
    cgra = presets.simple_cgra(4, 4)
    mapping = map_dfg(dfg, cgra, mapper="edge_centric")
    return dfg, cgra, mapping


def test_roundtrip_preserves_everything(setup):
    dfg, cgra, mapping = setup
    text = mapping_to_json(mapping)
    loaded = mapping_from_json(text, dfg, cgra)
    assert loaded.binding == mapping.binding
    assert loaded.schedule == mapping.schedule
    assert loaded.routes == mapping.routes
    assert loaded.ii == mapping.ii
    assert loaded.mapper == mapping.mapper
    assert loaded.validate() == []


def test_json_is_plain_and_versioned(setup):
    _, _, mapping = setup
    doc = json.loads(mapping_to_json(mapping))
    assert doc["format"] == 2
    assert doc["kind"] == "modulo"
    assert isinstance(doc["binding"], dict)


def test_fingerprint_rejects_wrong_substrate(setup):
    dfg, cgra, mapping = setup
    text = mapping_to_json(mapping)
    other = presets.simple_cgra(4, 4, topology="torus")
    with pytest.raises(ValueError, match="fingerprint"):
        mapping_from_json(text, dfg, other)
    # Opt-out works, but validation may then fail honestly.
    loaded = mapping_from_json(text, dfg, other, verify=False)
    assert loaded.cgra is other


def test_fingerprint_stable(setup):
    dfg, cgra, _ = setup
    assert fingerprint(dfg, cgra) == fingerprint(dfg, cgra)
    assert fingerprint(dfg, cgra) != fingerprint(
        dfg, presets.simple_cgra(2, 2)
    )


def test_fingerprint_covers_context_depth_and_rf(setup):
    """Format 1 hashed rendered text and collided on presets that
    differ only in context depth or RF size; format 2 must not."""
    dfg, _, _ = setup
    base = fingerprint(dfg, presets.simple_cgra(4, 4, n_contexts=32))
    assert base != fingerprint(
        dfg, presets.simple_cgra(4, 4, n_contexts=8)
    )
    assert base != fingerprint(
        dfg, presets.simple_cgra(4, 4, rf_size=2)
    )
    assert base != fingerprint(
        dfg, presets.simple_cgra(4, 4, mem_cells="left")
    )


def test_unknown_format_rejected(setup):
    dfg, cgra, mapping = setup
    doc = json.loads(mapping_to_json(mapping))
    doc["format"] = 99
    with pytest.raises(ValueError, match="format"):
        mapping_from_json(json.dumps(doc), dfg, cgra)


def test_spatial_mapping_roundtrip():
    dfg = kernels.if_select()
    cgra = presets.simple_cgra(4, 4)
    mapping = map_dfg(dfg, cgra, mapper="graph_drawing")
    loaded = mapping_from_json(mapping_to_json(mapping), dfg, cgra)
    assert loaded.kind == "spatial"
    assert loaded.validate() == []


def test_dual_issue_pairs_roundtrip():
    from repro.controlflow.dual_issue import dual_issue, map_dual_issue
    from tests.controlflow.test_predication import make_ite_cdfg

    dfg, pairs = dual_issue(make_ite_cdfg())
    cgra = presets.simple_cgra(4, 4)
    mapping = map_dual_issue(dfg, pairs, cgra)
    loaded = mapping_from_json(mapping_to_json(mapping), dfg, cgra)
    assert loaded.coexec == mapping.coexec
    assert loaded.validate() == []


# ---------------------------------------------------------------------------
# Corrupted-document corpus: every defect must surface as a clean
# ValueError naming the field — documents arrive over the wire now,
# and a raw KeyError/TypeError/IndexError is a daemon bug.
# ---------------------------------------------------------------------------
def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _mangle_route(**changes):
    def mutate(doc):
        doc["routes"][0].update(changes)
    return mutate


CORRUPTIONS = [
    _drop("fingerprint"), _drop("kind"), _drop("ii"), _drop("binding"),
    _drop("schedule"), _drop("routes"),
    _set("fingerprint", 17),
    _set("kind", "quantum"),
    _set("ii", "three"),
    _set("ii", True),
    _set("ii", 0),
    _set("binding", [1, 2, 3]),
    _set("binding", {"x": 1}),
    _set("binding", {"3": "pe0"}),
    _set("binding", {"3": True}),
    _set("schedule", "soon"),
    _set("routes", {"0": []}),
    _set("routes", ["not an object"]),
    _mangle_route(edge=None),
    _mangle_route(edge=[1, 2]),                 # wrong arity
    _mangle_route(edge=[1, 2, "p", 0]),         # non-int member
    _mangle_route(steps="abc"),
    _mangle_route(steps=[[1, 2]]),              # truncated step
    _mangle_route(steps=[[1, 2, 3, 4]]),        # oversized step
    _set("coexec", 5),
    _set("coexec", [[1, "two"]]),
]


@pytest.mark.parametrize("mutate", CORRUPTIONS)
def test_corrupted_docs_raise_field_naming_value_errors(setup, mutate):
    dfg, cgra, mapping = setup
    doc = json.loads(mapping_to_json(mapping))
    mutate(doc)
    with pytest.raises(ValueError, match="mapping document"):
        mapping_from_doc(doc, dfg, cgra, verify=False)


def test_well_formed_illegal_doc_raises_validation_error(setup):
    # Structurally perfect, semantically broken: shifting one op's
    # schedule slot collides FUs and breaks a dependence.  That is the
    # re-validation's ValidationError, not a document ValueError.
    dfg, cgra, mapping = setup
    doc = json.loads(mapping_to_json(mapping))
    first = min(doc["schedule"], key=int)
    doc["schedule"][first] += 1
    with pytest.raises(ValidationError, match="violation"):
        mapping_from_doc(doc, dfg, cgra, verify=False)


def test_non_object_doc_rejected(setup):
    dfg, cgra, _ = setup
    for junk in (None, 7, "doc", [1, 2]):
        with pytest.raises(ValueError, match="mapping document"):
            mapping_from_doc(junk, dfg, cgra)


def test_good_doc_still_roundtrips_after_hardening(setup):
    dfg, cgra, mapping = setup
    doc = json.loads(mapping_to_json(mapping))
    loaded = mapping_from_doc(doc, dfg, cgra)
    assert mapping_to_doc(loaded) == mapping_to_doc(mapping)


def test_node_map_missing_an_id_is_a_clean_error(setup):
    dfg, cgra, mapping = setup
    doc = mapping_to_doc(mapping)
    with pytest.raises(ValueError, match="unknown node id"):
        mapping_from_doc(doc, dfg, cgra, node_map={}, verify=False)


# ---------------------------------------------------------------------------
# DFG documents (inline problem graphs in serve requests)
# ---------------------------------------------------------------------------
def test_dfg_doc_roundtrip_preserves_ids_and_mapping_bytes():
    dfg = kernels.kernel("fir4")
    doc = dfg_to_doc(dfg)
    rebuilt = dfg_from_doc(copy.deepcopy(doc))
    assert {n.nid for n in rebuilt.nodes()} == {
        n.nid for n in dfg.nodes()
    }
    assert dfg_to_doc(rebuilt) == doc
    cgra = presets.simple_cgra(4, 4)
    original = mapping_to_doc(map_dfg(dfg, cgra, mapper="list_sched"))
    replayed = mapping_to_doc(map_dfg(rebuilt, cgra, mapper="list_sched"))
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        original, sort_keys=True
    )


def test_dfg_doc_is_json_clean():
    doc = dfg_to_doc(kernels.kernel("sobel_x"))
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(nodes="x"), "nodes"),
        (lambda d: d["nodes"].append(7), "nodes"),
        (lambda d: d["nodes"].append({"id": -1, "op": "add"}), "id"),
        (lambda d: d["nodes"].append(dict(d["nodes"][0])), "twice"),
        (
            lambda d: d["nodes"].append({"id": 999, "op": "frobnicate"}),
            "opcode",
        ),
        (lambda d: d["edges"].append([0, 1]), "edges"),
        (lambda d: d["edges"].append([0, 99999, 0, 0]), "edges"),
        (lambda d: d.update(name=4), "name"),
    ],
)
def test_dfg_doc_defects_are_clean_errors(mutate, needle):
    doc = dfg_to_doc(kernels.kernel("dot_product"))
    mutate(doc)
    with pytest.raises(ValueError, match="dfg document") as exc:
        dfg_from_doc(doc)
    assert needle in str(exc.value)
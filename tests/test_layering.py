"""Layering guard: the runtime package has one engine per hot path.

Reference implementations are test oracles (``tests/reference``): no
module under ``src/repro`` may import them, and the production entry
points that once selected between engines may not grow the switches
back.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: entry point -> retired keyword parameters (functions, or classes
#: whose ``__init__`` is checked)
GUARDED = {
    "Router": {"engine", "prune", "max_hold"},
    "route_negotiated": {"engine", "incremental"},
    "ClusteredSpatialMapper": {"vectorized", "route_engine"},
    "make_evaluator": {"vectorized"},
    "SATMapper": {"engine"},
}
TEST_PACKAGES = {"tests", "reference"}


def _modules():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    for path in files:
        yield path.relative_to(SRC.parent), ast.parse(path.read_text())


def _params(fn: ast.FunctionDef) -> set[str]:
    a = fn.args
    return {
        p.arg
        for p in a.posonlyargs + a.args + a.kwonlyargs
        + [a.vararg, a.kwarg]
        if p is not None
    }


def test_runtime_never_imports_test_oracles():
    bad = []
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in TEST_PACKAGES:
                    bad.append(f"{rel}:{node.lineno} imports {name}")
    assert not bad, "\n".join(bad)


def test_retired_engine_switches_stay_retired():
    bad, seen = [], set()
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in GUARDED:
                continue
            if isinstance(node, ast.ClassDef):
                inits = [
                    f for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and f.name == "__init__"
                ]
            else:
                inits = [node]
            seen.add(node.name)
            for fn in inits:
                for p in sorted(_params(fn) & GUARDED[node.name]):
                    bad.append(f"{rel}:{fn.lineno} {node.name}({p}=)")
    assert not bad, "\n".join(bad)
    # The guard must still be looking at the real entry points.
    assert {"Router", "route_negotiated", "ClusteredSpatialMapper",
            "SATMapper"} <= seen

"""Self-test of the output checker: it must pass a good served mapping
and catch corrupted ones.

    python3 perfbench/selftest.py     # exit 0 when every case holds

``run.py`` also runs :func:`failures` before each run's checks, so a
checker that stopped catching corruption cannot report a run correct.
"""

from __future__ import annotations

import copy
import random
import sys

from common import SRC


def _served():
    """A real modulo mapping, as the daemon would send it."""
    from repro.arch import presets
    from repro.core.registry import create
    from repro.core.serialize import mapping_to_doc
    from repro.ir import kernels as kernel_lib

    dfg = kernel_lib.kernel("fir4")
    cgra = presets.by_name("simple4x4")
    mapping = create("list_sched").map(dfg, cgra)
    resp = {"ok": True, "ii": mapping.ii, "mapping": mapping_to_doc(mapping)}
    return resp, dfg, cgra


def failures() -> list[str]:
    """Every self-test case that did not hold (empty when all did)."""
    from checker import check_served, same_bytes

    resp, dfg, cgra = _served()
    rng = random.Random(0)
    out: list[str] = []

    _m, err = check_served(resp, dfg, cgra, rng)
    if err is not None:
        out.append(f"good mapping rejected: {err}")

    def corrupt(name: str, edit) -> None:
        bad = copy.deepcopy(resp)
        edit(bad)
        _m, err = check_served(bad, dfg, cgra, rng)
        if err is None:
            out.append(f"corruption not caught: {name}")

    def move_to_neighbour(doc: dict) -> None:
        # Rebind one operation onto the cell of another scheduled in
        # the same modulo slot: a resource conflict.
        sched = doc["mapping"]["schedule"]
        binding = doc["mapping"]["binding"]
        ii = doc["mapping"]["ii"]
        for a in binding:
            for b in binding:
                if a != b and sched[a] % ii == sched[b] % ii:
                    binding[a] = binding[b]
                    return
        first = next(iter(binding))
        binding[first] = binding[first] + 1

    def shift_schedule(doc: dict) -> None:
        sched = doc["mapping"]["schedule"]
        last = max(sched, key=sched.get)
        sched[last] = 0  # a consumer scheduled before its producers

    corrupt("resource conflict", move_to_neighbour)
    corrupt("dependence violated", shift_schedule)
    corrupt("field missing", lambda d: d["mapping"].pop("binding"))
    corrupt("ii disagrees", lambda d: d.update(ii=d["ii"] + 1))
    corrupt("wrong fingerprint",
            lambda d: d["mapping"].update(fingerprint="0" * 16))

    twin = copy.deepcopy(resp["mapping"])
    if not same_bytes(resp["mapping"], twin):
        out.append("identical documents compared unequal")
    twin["schedule"] = dict(twin["schedule"])
    key = next(iter(twin["schedule"]))
    twin["schedule"][key] += 1
    if same_bytes(resp["mapping"], twin):
        out.append("differing deduped documents compared equal")
    return out


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"selftest: the program is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bad = failures()
    for line in bad:
        print(f"FAIL: {line}")
    print("checker self-test:", "ok" if not bad else f"{len(bad)} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two outputs of ``tools/digest_grid.py``, grouped by kind.

usage: python3 tools/digest_diff.py PARENT.json CHANGE.json

Prints, for each kind of entry (generate, flow, resize, warp, sweep and
run/<mode>), how many entries differ and which. Exits 1 if an entry that no
flow can change differs: every ``generate/*``, ``run/baseline/*`` and
``run/ema/*`` entry, and every ``run/mcma/*`` entry with alpha = 1
(``a1.0_``) or lambda = 0 (``_l0.0``). It also exits 1 if the two files
hold different keys, or if either file has a sequential run entry that
differs from its parallel twin.
"""

from __future__ import annotations

import json
import sys


def kind(key: str) -> str:
    parts = key.split("/")
    return "/".join(parts[:2]) if parts[0] == "run" else parts[0]


def flow_free(key: str) -> bool:
    """True for an entry that no flow can change."""
    if key.startswith(("generate/", "run/baseline/", "run/ema/")):
        return True
    return key.startswith("run/mcma/") and ("/a1.0_" in key
                                            or key.endswith("_l0.0"))


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = map(load, argv)
    bad = [f"only in {'parent' if key in parent else 'change'}: {key}"
           for key in sorted(parent.keys() ^ change.keys())]
    for name, side in (("parent", parent), ("change", change)):
        for key in sorted(side):
            twin = key.replace("/sequential/", "/parallel/")
            if twin != key and side[key] != side.get(twin):
                bad.append(f"executors differ in {name}: {key}")

    groups = {}
    for key in sorted(parent.keys() & change.keys()):
        groups.setdefault(kind(key), []).append(key)
    differing = 0
    for name, keys in groups.items():
        diff = [key for key in keys if parent[key] != change[key]]
        differing += len(diff)
        print(f"{name}: {len(diff)} of {len(keys)} differ")
        for key in diff:
            print(f"  {key}")
            if flow_free(key):
                bad.append(f"differs, though no flow can change it: {key}")
    print(f"total: {differing} of {sum(map(len, groups.values()))} differ")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

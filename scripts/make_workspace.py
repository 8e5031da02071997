#!/usr/bin/env python3
"""Write a starter workspace with the built-in worlds, ready for the CLI:

    python scripts/make_workspace.py ws.json
    hopfsmash verify ws.json k3s3 smash-pipeline
    hopfsmash construct ws.json double:z2 dz2.json
"""

import sys

from hopfsmash import demos as dm
from hopfsmash.cli import _write_json, ser_vec
from hopfsmash.qtriang import trivial_qt


def main(path: str) -> int:
    s3 = dm.s3_table()
    z2 = dm.z2_table()
    m3 = dm.k3_module_algebra()
    q3 = trivial_qt(m3.host)
    doc = {"objects": {
        "z2": {"type": "group", "elements": list(z2.elements),
               "table": [list(r) for r in z2.table]},
        "s3": {"type": "group", "elements": list(s3.elements),
               "table": [list(r) for r in s3.table]},
        "qs3-trivial": {"type": "qt", "host": "s3", "R": q3.R},
        "k3s3": {"type": "module-algebra", "host": "s3",
                 "algebra": {"dim": 3, "mult": m3.A.mult,
                             "unit": ser_vec(m3.A.unit)},
                 "action": m3.action},
        "transpositions": {"type": "subcoalgebra", "qt": "qs3-trivial",
                           "basis": [["0", "1", "0", "0", "0", "0"],
                                     ["0", "0", "1", "0", "0", "0"],
                                     ["0", "0", "0", "0", "0", "1"]]},
    }}
    if not _write_json(path, doc):
        return 2
    print(f"workspace written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "ws.json"))

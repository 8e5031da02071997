"""Seeded inputs for the benchmark.

Every built-in group is relabeled by a seeded permutation of its elements, and
every G-set by a seeded permutation of its points, before anything reaches
hopfsmash. The program only ever sees the relabeled tables, so a result that
depends on the order of the built-in tables shows up as a wrong verdict on
some seed. The same seed always gives the same tables.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hopfsmash import demos
from hopfsmash.exactlin import TensorElem
from hopfsmash.hopfcore import GroupTable


def rng_for(seed: int, label: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"hopfsmash-bench/{seed}/{label}")


def relabel_group(table: GroupTable, rng: random.Random):
    """(relabeled table, perm) where perm[old index] = new index."""
    n = table.order
    perm = list(range(n))
    rng.shuffle(perm)
    old = [0] * n
    for o, new in enumerate(perm):
        old[new] = o
    elements = [table.elements[old[a]] for a in range(n)]
    rows = [[perm[table.table[old[a]][old[b]]] for b in range(n)] for a in range(n)]
    return GroupTable.from_lists(elements, rows), perm


def relabel_action(action, perm, rng: random.Random):
    """Relabel the points of a G-set whose rows follow the unrelabeled group;
    rows of the result follow the relabeled group given by perm."""
    npts = len(action[0])
    sigma = list(range(npts))
    rng.shuffle(sigma)
    out = [[0] * npts for _ in action]
    for g, row in enumerate(action):
        for x, y in enumerate(row):
            out[perm[g]][sigma[x]] = sigma[y]
    return out


def cyclic(n: int, rng: random.Random) -> GroupTable:
    return relabel_group(demos.cyclic_table(n), rng)[0]


def s3_with_points(rng: random.Random):
    """Relabeled S3 and its natural action on 3 relabeled points."""
    table, perm = relabel_group(demos.s3_table(), rng)
    return table, relabel_action(demos.natural_point_action(3), perm, rng)


def z2_with_points(rng: random.Random):
    """Relabeled Z2 and its swap action on 2 relabeled points."""
    table, perm = relabel_group(demos.z2_table(), rng)
    return table, relabel_action(demos.z2_two_point_action(), perm, rng)


def involutions(table: GroupTable) -> list:
    """Indices of the elements of order 2 (the transpositions of S3)."""
    e = table.identity
    return [g for g in range(table.order) if g != e and table.table[g][g] == e]


def minus_r(table: GroupTable) -> TensorElem:
    """R = (1(x)1 + 1(x)g + g(x)1 - g(x)g) / 2 on kZ2, in the table's labels."""
    e = table.identity
    g = 1 - e
    half = Fraction(1, 2)
    return TensorElem.from_entries((2, 2), [((e, e), half), ((e, g), half),
                                            ((g, e), half), ((g, g), -half)])


def workspace_doc(table: GroupTable, action) -> dict:
    """A workspace holding the relabeled S3 and k^3 over it."""
    n, npts = table.order, len(action[0])
    one, zero = "1", "0"
    mult = [[[one if a == b == k else zero for k in range(npts)] for b in range(npts)]
            for a in range(npts)]
    act = [[[one if action[g][x] == y else zero for y in range(npts)] for x in range(npts)]
           for g in range(n)]
    return {"objects": {
        "s3": {"type": "group", "elements": list(table.elements),
               "table": [list(r) for r in table.table]},
        "k3s3": {"type": "module-algebra", "host": "s3",
                 "algebra": {"dim": npts, "mult": mult, "unit": [one] * npts},
                 "action": act},
    }}

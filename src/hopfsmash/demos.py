"""Built-in demo worlds: small group tables, their group algebras, standard
module algebras and R-matrices. Shared by the CLI pipelines and the test
suite; everything here is rational-split by construction."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactlin import TensorElem
from .hopfcore import GroupTable, HopfData, group_algebra
from .modalg import ModuleAlgebraData, permutation_module_algebra
from .qtriang import QTStructure, qt_structure


def cyclic_table(n: int) -> GroupTable:
    names = [f"g{i}" if i else "e" for i in range(n)]
    return GroupTable.from_lists(names, [[(i + j) % n for j in range(n)] for i in range(n)])


def z2_table() -> GroupTable:
    return cyclic_table(2)


def symmetric_table(n: int) -> GroupTable:
    perms = list(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(n))

    return GroupTable.from_lists(
        ["".join(map(str, p)) for p in perms],
        [[idx[compose(p, q)] for q in perms] for p in perms])


def s3_table() -> GroupTable:
    return symmetric_table(3)


def natural_point_action(n: int):
    """S_n permuting n points, rows aligned with symmetric_table(n)."""
    perms = list(itertools.permutations(range(n)))
    return [[p[x] for x in range(n)] for p in perms]


def z2_two_point_action():
    """Z_2 swapping two points."""
    return [[0, 1], [1, 0]]


def k_z2() -> HopfData:
    return group_algebra(z2_table())


def k_s3() -> HopfData:
    return group_algebra(s3_table())


def k3_module_algebra(h: HopfData | None = None) -> ModuleAlgebraData:
    """k^3 over kS_3 by permuting the minimal idempotents."""
    h = h if h is not None else k_s3()
    return permutation_module_algebra(h, s3_table(), natural_point_action(3))


def k2_module_algebra_over_z2(h: HopfData | None = None) -> ModuleAlgebraData:
    h = h if h is not None else k_z2()
    return permutation_module_algebra(h, z2_table(), z2_two_point_action())


def minus_r_z2(h: HopfData | None = None) -> QTStructure:
    """The nontrivial triangular structure on kZ_2:
    R = (1(x)1 + 1(x)g + g(x)1 - g(x)g) / 2."""
    h = h if h is not None else k_z2()
    half = Fraction(1, 2)
    R = TensorElem.from_entries((2, 2), [((0, 0), half), ((0, 1), half),
                                         ((1, 0), half), ((1, 1), -half)])
    return qt_structure(h, R)

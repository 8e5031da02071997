#!/usr/bin/env python3
"""Build the enveloping weak Hopf algebra B = End(A*) (x) H of `build_B` on
the module algebras the test suite builds it for, and on kA3 inside kS3 over
D(kS3), and check each B against pinned digests of its structure maps:

    PYTHONPATH=src python scripts/b_worlds.py

kA3 is `tests/conftest._ka3_world`: the span of the even permutations in
the D(kS3)-module algebra `double_module_algebra(kS3)`.  Its B has
dimension 324 and takes seconds, not milliseconds, so it is no tier-1
test.  It is the one world whose host is not commutative and whose R has
more than one term, so it is the one that tells apart the R-legs of
Delta_B.

Each world prints as one line of a markdown table: its name, dim B, the wall
time of `build_B`, the wall time of `verify_weak_hopf` on a fresh copy of B
(new algebra, coalgebra and WeakHopfData, so no cached report or index is
read), and whether the four digests of
`tests/conftest._structure_digest` (product and unit, coproduct and counit,
antipode, R_B and its weak inverse) are the pinned ones, or the refusal when
`build_B` refuses the world.  The exit status is 1 when any world is refused
or any digest differs.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import _ka3_world, _structure_digest  # noqa: E402

from hopfsmash import demos as dm  # noqa: E402
from hopfsmash.hopfcore import StructureAlgebra, StructureCoalgebra, drinfeld_double  # noqa: E402
from hopfsmash.modalg import pointwise_algebra, separability, trivial_module_algebra  # noqa: E402
from hopfsmash.qtriang import trivial_qt  # noqa: E402
from hopfsmash.report import HypothesisFailure  # noqa: E402
from hopfsmash.smashcons import build_B, double_module_algebra  # noqa: E402
from hopfsmash.weakhopf import WeakHopfData, verify_weak_hopf  # noqa: E402

PINS = {
    "k3/kS3": ("9bdec80a1a482e4f", "205efc7e9cd3d82b", "733bd4caeee2eaa9", "cad9d3d72d1e9811"),
    "kZ2/D(kZ2)": ("8b7eb2bc16a351d7", "2e8093c937006db7", "a441790bc6648a59", "1c3fb8e4e51a909e"),
    "k/D(kZ2)": ("dd0fd9859147ca2c", "c2c113389f6d6c5b", "ad2116b5173b6f94", "230d61724de7c70b"),
    "k2/kZ2": ("1550ec5083e136e0", "c7dddab9a0ad55d2", "ddd48aff17a83bd0", "a744e638f60eed38"),
    "kA3/D(kS3)": ("b7671e1c658fb12a", "15a5b821800ff19d", "36e3024c9536b5ed", "b9568d218e069679"),
}


def worlds():
    """(name, module algebra, QT structure) of each world, in PINS' order."""
    kz2, ks3 = dm.k_z2(), dm.k_s3()
    dz2 = drinfeld_double(kz2)
    yield "k3/kS3", dm.k3_module_algebra(ks3), trivial_qt(ks3)
    yield ("kZ2/D(kZ2)", *double_module_algebra(kz2, dz2))
    yield "k/D(kZ2)", trivial_module_algebra(dz2[0], pointwise_algebra(1)), dz2[1]
    yield "k2/kZ2", dm.k2_module_algebra_over_z2(kz2), trivial_qt(kz2)
    yield ("kA3/D(kS3)", *_ka3_world(ks3))


def main() -> int:
    failed = []
    print("| world | dim B | build_B s | verify_weak_hopf s | digests |")
    print("| --- | --- | --- | --- | --- |")
    for name, m, q in worlds():
        sep = separability(m)
        t0 = time.perf_counter()
        try:
            b = build_B(m, q, sep)
        except HypothesisFailure as exc:
            failed.append(name)
            print(f"| {name} | - | {time.perf_counter() - t0:.3f} | - | refused: {exc} |")
            continue
        seconds = time.perf_counter() - t0
        w = b.wha
        fresh = WeakHopfData(StructureAlgebra(w.dim, w.mult, w.unit),
                             StructureCoalgebra(w.dim, w.comult, w.counit), w.antipode)
        t0 = time.perf_counter()
        verify_weak_hopf(fresh)
        verify_seconds = time.perf_counter() - t0
        digests = (_structure_digest(w.mult, w.unit), _structure_digest(w.comult, w.counit),
                   _structure_digest(w.antipode.matrix),
                   _structure_digest(b.rqt.Rw, b.rqt.Rw_bar))
        verdict = "pinned" if digests == PINS[name] else f"differ: {digests}"
        if digests != PINS[name]:
            failed.append(name)
        print(f"| {name} | {w.dim} | {seconds:.3f} | {verify_seconds:.3f} | {verdict} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

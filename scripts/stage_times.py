#!/usr/bin/env python3
"""Print the median wall time of each stage of the paper's pipeline on the
Drinfeld double D(kG) of a group G:

    PYTHONPATH=src python scripts/stage_times.py s4 [--runs 3] [--skip STAGE ...]

The host is zN (the cyclic group of order N) or sN (the symmetric group on
N points).  Each run builds D(kG) afresh and then times, in order:
`drinfeld_double`, split into its build and its `verify_hopf` and `verify_qt`
reports, with the build's product (`twisted_product`) and coproduct
(`Tensor3.kron`) timed apart, and `verify_qt`'s `intertwines_comult` scan
(`intertwining_failures`, timed while its failures are drawn) and its
hexagons (`hexagon_sides`) timed apart; `adjoint_action_tensor`; `transmute` with its report;
`verify_braided_group` run a second time; `almost_triangular_equivalences`;
`decompose_hr` of the braided group and `wedderburn_blocks` of D(kG), the
largest eliminations of the pipeline; and `double_smash_decomposition`, split
into its builds of the carrier of H # D(kG) (`smash_carrier`) and of
Heis(kG^cop) (`heisenberg_double`), its `C_equals_full_centralizer`
elimination (`StructureAlgebra.centralizer_basis`), and its
`total_map_multiplicative` scan (`tensor_map_failures`, which reads the
products of Heis(kG^cop) (x) kG off the two factors, timed while its failures
are drawn).  A stage named after --skip is left out; H # D(kG) has dimension
|G|^3, so on s4 that is the decomposition.  The table is markdown, one line
per stage, with the median over the runs.
"""

import argparse
import statistics
import sys
import time
import types
from contextlib import ExitStack, contextmanager

from hopfsmash import demos as dm
from hopfsmash import hopfcore, qtriang, smashcons
from hopfsmash.adjstable import decompose_hr
from hopfsmash.exactlin import Tensor3
from hopfsmash.hopfcore import drinfeld_double, group_algebra
from hopfsmash.qtriang import (
    adjoint_action_tensor,
    almost_triangular_equivalences,
    transmute,
    verify_braided_group,
)
from hopfsmash.repdim import wedderburn_blocks
from hopfsmash.smashcons import double_smash_decomposition

STAGES = ("drinfeld_double", "  build", "  product", "  coproduct", "  verify_hopf",
          "  verify_qt", "    intertwines_comult", "    hexagon_sides", "adjoint_action_tensor", "transmute", "verify_braided_group",
          "almost_triangular_equivalences", "decompose_hr", "wedderburn_blocks",
          "double_smash_decomposition", "  smash_carrier", "  heisenberg_double",
          "  centralizer_basis", "  total_map_multiplicative")
# sub-row of verify_qt -> the hopfcore name it times
QT_PARTS = {"    intertwines_comult": "intertwining_failures",
            "    hexagon_sides": "hexagon_sides"}
# sub-row of double_smash_decomposition -> (owner, name) of what it times
DECOMPOSITION_PARTS = {"  smash_carrier": (smashcons, "smash_carrier"),
                       "  heisenberg_double": (smashcons, "heisenberg_double"),
                       "  centralizer_basis": (hopfcore.StructureAlgebra, "centralizer_basis"),
                       "  total_map_multiplicative": (smashcons, "tensor_map_failures")}


def host_table(name: str):
    kinds = {"z": dm.cyclic_table, "s": dm.symmetric_table}
    if name[:1] not in kinds or not name[1:].isdigit():
        raise SystemExit(f"unknown host {name!r}: expected zN or sN")
    return kinds[name[0]](int(name[1:]))


@contextmanager
def timed(module, name: str, spent: dict):
    """Add the seconds spent in module.name to spent[name] while inside; a
    generator it returns is timed while its items are drawn, where a lazy
    scan does its work."""
    inner = getattr(module, name)

    def add(t0):
        spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0

    def drawn(gen):
        while True:
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                add(t0)
            yield item

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = inner(*args, **kwargs)
        finally:
            add(t0)
        return drawn(out) if isinstance(out, types.GeneratorType) else out

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, inner)


def one_run(h, skip) -> dict:
    """{stage: seconds} for one pass of the pipeline on D(h)."""
    out: dict = {}
    spent: dict = {}
    with ExitStack() as stack:
        for module, name in ((hopfcore, "verify_hopf"), (qtriang, "verify_qt"),
                             (hopfcore, "twisted_product"), (Tensor3, "kron"),
                             *((hopfcore, name) for name in QT_PARTS.values())):
            stack.enter_context(timed(module, name, spent))
        t0 = time.perf_counter()
        dh, q = drinfeld_double(h)
        out["drinfeld_double"] = time.perf_counter() - t0
    out["  product"] = spent.get("twisted_product", 0.0)
    out["  coproduct"] = spent.get("kron", 0.0)
    out["  verify_hopf"] = spent.get("verify_hopf", 0.0)
    out["  verify_qt"] = spent.get("verify_qt", 0.0)
    out.update((row, spent.get(name, 0.0)) for row, name in QT_PARTS.items())
    out["  build"] = out["drinfeld_double"] - out["  verify_hopf"] - out["  verify_qt"]

    def stage(name, call):
        """call(), timed into out[name]; None when name is skipped."""
        if name in skip:
            return None
        t0 = time.perf_counter()
        result = call()
        out[name] = time.perf_counter() - t0
        return result

    stage("adjoint_action_tensor", lambda: adjoint_action_tensor(dh))
    if (bg := stage("transmute", lambda: transmute(q))) is not None:
        stage("verify_braided_group", lambda: verify_braided_group(bg).require())
        stage("almost_triangular_equivalences",
              lambda: almost_triangular_equivalences(q, bg).require())
        stage("decompose_hr", lambda: decompose_hr(bg).report.require())
    stage("wedderburn_blocks", lambda: wedderburn_blocks(dh.algebra))
    parts: dict = {}
    with ExitStack() as stack:
        for owner, name in DECOMPOSITION_PARTS.values():
            stack.enter_context(timed(owner, name, parts))
        stage("double_smash_decomposition",
              lambda: double_smash_decomposition(h, (dh, q)).require())
    if "double_smash_decomposition" in out:
        out.update((row, parts.get(name, 0.0)) for row, (_, name) in DECOMPOSITION_PARTS.items())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("host", help="zN or sN")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--skip", nargs="*", default=[],
                    choices=[name for name in STAGES[1:] if name[0] != " "])
    args = ap.parse_args(argv)
    h = group_algebra(host_table(args.host))
    h.report.require()
    runs = [one_run(h, set(args.skip)) for _ in range(max(1, args.runs))]
    print(f"D(k{args.host.upper()}), dim {h.dim ** 2}: median of {len(runs)} runs")
    print("| stage | s |\n| --- | --- |")
    for name in STAGES:
        if name in runs[0]:
            print(f"| `{name.strip()}`{' (in the above)' if name[0] == ' ' else ''} "
                  f"| {statistics.median(r[name] for r in runs):.4g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

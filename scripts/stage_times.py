#!/usr/bin/env python3
"""Print the median wall time of each stage of the paper's pipeline on the
Drinfeld double D(kG) of a group G:

    PYTHONPATH=src python scripts/stage_times.py s4 [--runs 3] [--skip STAGE ...]
                                                    [--against DIR]

The host is zN (the cyclic group of order N) or sN (the symmetric group on
N points).  Each run builds D(kG) afresh and then times, in order:
`drinfeld_double`, split into its build and its `verify_hopf` and `verify_qt`
reports, with the build's product (`twisted_product`), coproduct
(`Tensor3.kron`) and certified generators (`generating_set`) timed apart,
`verify_hopf`'s Delta-multiplicativity scan
(`comult_multiplicative_failures`, timed while its failures are drawn), and
`verify_qt`'s `intertwines_comult` scan
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
are drawn).  Last, `nd_transport_report` on the largest block D of H_R(kG)
under the trivial R (the first of the largest, in `decompose_hr`'s order, on
a braided group of its own, built with the block and the integrals before
the clock starts), split into its `almost_triangular_wha_report`s, its
`adjoint_stable_algebra`s (N_D inside `psi_phi`, and each one-dimensional
N_W it compares with N_D) and its `wedderburn_blocks` (of N_D and of each
N_W).  A stage named after --skip is left out; H # D(kG) has dimension
|G|^3, so on s4 that is the decomposition.  The table is markdown, one line
per stage, with the median over the runs; --json prints the runs instead,
as one JSON list of {stage: seconds}.

--against DIR compares this tree with the checkout DIR (its src/hopfsmash,
which must have the functions timed here) within one invocation: each run
times one pass on both trees in turn, each in a fresh interpreter,
alternating which goes first, and the table gives both medians and the
number of runs this tree was faster in.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import types
from contextlib import ExitStack, contextmanager
from pathlib import Path

import hopfsmash
from hopfsmash import demos as dm
from hopfsmash import adjstable, hopfcore, qtriang, repdim, smashcons
from hopfsmash.adjstable import decompose_hr, nd_transport_report
from hopfsmash.exactlin import Tensor3
from hopfsmash.hopfcore import drinfeld_double, group_algebra, integrals
from hopfsmash.qtriang import (
    adjoint_action_tensor,
    almost_triangular_equivalences,
    transmute,
    trivial_qt,
    verify_braided_group,
)
from hopfsmash.repdim import wedderburn_blocks
from hopfsmash.smashcons import double_smash_decomposition

STAGES = ("drinfeld_double", "  build", "  product", "  coproduct", "  generating_set",
          "  verify_hopf", "    comult_multiplicative_failures", "  verify_qt",
          "    intertwines_comult", "    hexagon_sides", "adjoint_action_tensor", "transmute",
          "verify_braided_group", "almost_triangular_equivalences", "decompose_hr",
          "wedderburn_blocks", "double_smash_decomposition", "  smash_carrier",
          "  heisenberg_double", "  centralizer_basis", "  total_map_multiplicative",
          "nd_transport_report", "  almost_triangular_wha_report", "  adjoint_stable_algebra",
          "  wedderburn_blocks")
# sub-row of drinfeld_double, its build or verify_hopf -> the hopfcore name it times
BUILD_PARTS = {"  generating_set": "generating_set",
               "    comult_multiplicative_failures": "comult_multiplicative_failures"}
# sub-row of verify_qt -> the hopfcore name it times
QT_PARTS = {"    intertwines_comult": "intertwining_failures",
            "    hexagon_sides": "hexagon_sides"}
# sub-row of double_smash_decomposition -> (owner, name) of what it times
DECOMPOSITION_PARTS = {"  smash_carrier": (smashcons, "smash_carrier"),
                       "  heisenberg_double": (smashcons, "heisenberg_double"),
                       "  centralizer_basis": (hopfcore.StructureAlgebra, "centralizer_basis"),
                       "  total_map_multiplicative": (smashcons, "tensor_map_failures")}
# sub-row of nd_transport_report -> (owner, name) of what it times
ND_PARTS = {"  almost_triangular_wha_report": (adjstable, "almost_triangular_wha_report"),
            "  adjoint_stable_algebra": (adjstable, "adjoint_stable_algebra"),
            "  wedderburn_blocks": (repdim, "wedderburn_blocks")}


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
                             *((hopfcore, name) for name in (*BUILD_PARTS.values(),
                                                             *QT_PARTS.values()))):
            stack.enter_context(timed(module, name, spent))
        t0 = time.perf_counter()
        dh, q = drinfeld_double(h)
        out["drinfeld_double"] = time.perf_counter() - t0
    out["  product"] = spent.get("twisted_product", 0.0)
    out["  coproduct"] = spent.get("kron", 0.0)
    out["  verify_hopf"] = spent.get("verify_hopf", 0.0)
    out["  verify_qt"] = spent.get("verify_qt", 0.0)
    out.update((row, spent.get(name, 0.0)) for row, name in (*BUILD_PARTS.items(),
                                                             *QT_PARTS.items()))
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
    if "nd_transport_report" not in skip:
        q_triv = trivial_qt(h)
        bg_triv, ip = transmute(q_triv), integrals(h)
        dec = decompose_hr(bg_triv)
        block = max(dec.blocks, key=len)
        parts = {}
        with ExitStack() as stack:
            for owner, name in ND_PARTS.values():
                stack.enter_context(timed(owner, name, parts))
            stage("nd_transport_report",
                  lambda: nd_transport_report(block, q_triv, ip, bg_triv, dec).require())
        out.update((row, parts.get(name, 0.0)) for row, (_, name) in ND_PARTS.items())
    return out


def label(name: str) -> str:
    """A stage's first cell: its name, and for a sub-row where it is timed."""
    return f"`{name.strip()}`{' (in the above)' if name[0] == ' ' else ''}"


def fresh_run(src: Path, argv: list) -> dict:
    """{stage: seconds} of one run of this script in a fresh interpreter that
    imports hopfsmash from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, __file__, *argv, "--runs", "1", "--json"], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(run.stdout)[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("host", help="zN or sN")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--skip", nargs="*", default=[],
                    choices=[name for name in STAGES[1:] if name[0] != " "])
    ap.add_argument("--json", action="store_true", help="print the runs as one JSON list")
    ap.add_argument("--against", metavar="DIR", type=Path,
                    help="a second checkout, timed in turn with this tree")
    args = ap.parse_args(argv)
    table = host_table(args.host)
    runs = max(1, args.runs)
    title = f"D(k{args.host.upper()}), dim {table.order ** 2}: median of {runs} runs"
    if args.against is None:
        h = group_algebra(table)
        h.report.require()
        times = [one_run(h, set(args.skip)) for _ in range(runs)]
        if args.json:
            print(json.dumps(times))
            return 0
        print(title)
        print("| stage | s |\n| --- | --- |")
        for name in STAGES:
            if name in times[0]:
                print(f"| {label(name)} | {statistics.median(r[name] for r in times):.4g} |")
        return 0
    srcs = [Path(hopfsmash.__file__).resolve().parent.parent, args.against / "src"]
    if not (srcs[1] / "hopfsmash").is_dir():
        ap.error(f"{srcs[1] / 'hopfsmash'} is not a directory")
    child = [args.host, "--skip", *args.skip]
    sides: list = [[], []]
    for run in range(runs):
        for side in (0, 1) if run % 2 == 0 else (1, 0):
            sides[side].append(fresh_run(srcs[side], child))
    print(f"{title}, each in a fresh interpreter")
    print(f"| stage | this tree (s) | {args.against} (s) | this tree faster |\n"
          "| --- | --- | --- | --- |")
    for name in STAGES:
        if name in sides[0][0] and name in sides[1][0]:
            ours, theirs = ([r[name] for r in side] for side in sides)
            wins = sum(a < b for a, b in zip(ours, theirs))
            print(f"| {label(name)} | {statistics.median(ours):.4g} "
                  f"| {statistics.median(theirs):.4g} | {wins}/{runs} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

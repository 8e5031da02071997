#!/usr/bin/env python3
"""Print the median start-up times of hopfsmash over fresh interpreters:

    PYTHONPATH=src python scripts/startup_times.py [--runs 5] [--against DIR]

Each measurement runs in a new interpreter on a copy of the imported
hopfsmash package, made in a temporary directory:
  * the import of the nine layers (`exactlin` ... `cli`, as perfbench/run.py
    times it) with bytecode off (-B), from a copy that has no __pycache__,
    so every module is compiled from source as in the benchmark's fresh
    checkouts; and with bytecode on, read from a cache that one run filled
    beforehand, as in an installed package (PYTHONPYCACHEPREFIX points into
    the temporary directory, so nothing outside it is written);
  * the process wall of `python -m hopfsmash demo <name>` for each demo, on
    the copy with bytecode on, timed from the outside.
Runs alternate between the measurements.  The table is markdown, one line
per measurement, with the median over the runs.

--against DIR compares this tree with the checkout DIR (its src/hopfsmash,
which must have the same demos) within one invocation: each run times every
measurement on both trees in turn, alternating which goes first, and the
table gives both medians and the number of runs this tree was faster in.
"""

import argparse
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hopfsmash
from hopfsmash.cli import DEMOS

LAYERS = ("exactlin", "hopfcore", "qtriang", "modalg", "weakhopf", "smashcons",
          "adjstable", "repdim", "cli")
IMPORT = ("import time\n"
          "t0 = time.perf_counter()\n"
          f"for layer in {LAYERS!r}:\n"
          "    __import__('hopfsmash.' + layer)\n"
          "print(time.perf_counter() - t0)\n")


def python(args, env: dict, cwd) -> tuple:
    """(seconds of process wall, stdout) of one fresh interpreter."""
    t0 = time.perf_counter()
    run = subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                         capture_output=True, text=True)
    return time.perf_counter() - t0, run.stdout


def measurements(package: Path, tmp: Path) -> dict:
    """{measurement: function timing it once} on a copy of package in tmp."""
    shutil.copytree(package, tmp / "hopfsmash", ignore=shutil.ignore_patterns("__pycache__"))
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    cold = {**base, "PYTHONPATH": str(tmp)}
    warm = {**cold, "PYTHONPYCACHEPREFIX": str(tmp / "pycache")}
    python(["-c", IMPORT], warm, tmp)    # fill the bytecode cache
    rows = {"import of the nine layers, bytecode off":
            lambda: float(python(["-B", "-c", IMPORT], cold, tmp)[1]),
            "import of the nine layers, bytecode on":
            lambda: float(python(["-c", IMPORT], warm, tmp)[1])}
    for name in sorted(DEMOS):
        rows[f"`demo {name}` process wall"] = (
            lambda name=name: python(["-m", "hopfsmash", "demo", name], warm, tmp)[0])
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--against", metavar="DIR", type=Path,
                    help="a second checkout, timed in turn with this tree")
    args = ap.parse_args(argv)
    runs = max(1, args.runs)
    packages = [Path(hopfsmash.__file__).parent]
    if args.against is not None:
        packages.append(args.against / "src" / "hopfsmash")
        if not packages[1].is_dir():
            ap.error(f"{packages[1]} is not a directory")
    with tempfile.TemporaryDirectory() as tmp:
        trees = [measurements(package, Path(tmp) / str(side))
                 for side, package in enumerate(packages)]
        times = {row: [[] for _ in trees] for row in trees[0]}
        for run in range(runs):
            order = list(range(len(trees)))[::1 if run % 2 == 0 else -1]
            for row, ts in times.items():
                for side in order:
                    ts[side].append(trees[side][row]())
    print(f"hopfsmash start-up, Python {platform.python_version()}: "
          f"median of {runs} fresh interpreters")
    if len(trees) == 1:
        print("| measurement | s |\n| --- | --- |")
        for row, (ts,) in times.items():
            print(f"| {row} | {statistics.median(ts):.4f} |")
        return 0
    print(f"| measurement | this tree (s) | {args.against} (s) | this tree faster |\n"
          "| --- | --- | --- | --- |")
    for row, (ours, theirs) in times.items():
        wins = sum(a < b for a, b in zip(ours, theirs))
        print(f"| {row} | {statistics.median(ours):.4f} | {statistics.median(theirs):.4f} "
              f"| {wins}/{runs} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

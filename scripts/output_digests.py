#!/usr/bin/env python3
"""Print the sha256 of every file the CLI writes for the built-in worlds, so
two checkouts can be compared output for output:

    PYTHONPATH=src python scripts/output_digests.py > digests.txt

Into a temporary directory, under relative paths (the paths end up in the
files), it writes make_workspace.py's workspace and then 26 files: the 12
`construct` outputs on that workspace, the 8 `verify --json` reports on it and
the 6 `demo --json` reports.  Each prints as one `sha256  name` line, in that
order.  The exit status is 1 when any command did not succeed.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from make_workspace import main as make_workspace

from hopfsmash.cli import DEMOS, main as cli

WORKSPACE = "ws.json"
CONSTRUCTS = ("group-algebra:s3", "dual:s3", "double:z2", "double:s3", "heisenberg:z2",
              "heisenberg:s3", "smash:k3s3", "smash-wha:k3s3", "build-B:k3s3",
              "transmute:qs3-trivial", "nd:transpositions", "decompose-hr:qs3-trivial")
VERIFIES = (("z2", "hopf"), ("s3", "hopf"), ("qs3-trivial", "qt"),
            ("k3s3", "module-algebra"), ("z2", "weak-hopf"), ("s3", "weak-hopf"),
            ("k3s3", "smash-pipeline"), ("transpositions", "adjoint-stable"))


def commands():
    """(file name, CLI arguments that write it) for each of the 26 files."""
    for recipe in CONSTRUCTS:
        name = recipe.replace(":", "_").replace(",", "_") + ".json"
        yield name, ["construct", WORKSPACE, recipe, name]
    for target, suite in VERIFIES:
        name = f"verify-{suite}-{target}.json"
        yield name, ["--json", name, "verify", WORKSPACE, target, suite]
    for demo in sorted(DEMOS):
        name = f"{demo}-report.json"
        yield name, ["--json", name, "demo", demo]


def main() -> int:
    failed = []
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                make_workspace(WORKSPACE)
                for name, argv in commands():
                    if cli(argv) != 0:
                        failed.append(name)
                    with open(name, "rb") as fh:
                        lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
        finally:
            os.chdir(cwd)
    print("\n".join(lines))
    if failed:
        print(f"not ok: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

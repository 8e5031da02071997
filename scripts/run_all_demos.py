#!/usr/bin/env python3
"""Run every built-in demo pipeline in sequence and summarize.

Usage: python scripts/run_all_demos.py [--skip-big]
The reports land in the current directory as <name>-report.json.
"""

import sys
import time

from hopfsmash.cli import DEMOS, cmd_demo


def main() -> int:
    skip_big = "--skip-big" in sys.argv
    failures = []
    for name in sorted(DEMOS):
        if skip_big and name == "double-s3":
            print(f"== {name}: skipped (--skip-big)")
            continue
        t0 = time.time()
        print(f"== {name}")
        rc = cmd_demo(name, seed=0, json_path=None)
        print(f"== {name}: {'ok' if rc == 0 else 'FAILED'} ({time.time() - t0:.1f}s)\n")
        if rc != 0:
            failures.append(name)
    if failures:
        print("failed demos:", ", ".join(failures))
        return 1
    print("all demos passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

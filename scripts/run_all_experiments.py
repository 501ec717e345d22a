#!/usr/bin/env python3
"""Run every CLI subcommand with its default config and collect the
reports under out/.  The seed, the first argument (default 7), goes to the
experiments that declare one."""

import inspect
import sys

from reflectionless.cli import _RUNNERS, main

if __name__ == "__main__":
    seed = sys.argv[1] if len(sys.argv) > 1 else "7"
    worst = 0
    for name, runner in _RUNNERS.items():
        print(f"=== {name} ===")
        args = [name, "--out", f"out/{name}"]
        if "seed" in inspect.signature(runner).parameters:
            args += ["--seed", seed]
        worst = max(worst, main(args))
    sys.exit(worst)

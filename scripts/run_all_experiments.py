#!/usr/bin/env python3
"""Run every CLI subcommand with its default config and collect the
reports under out/.  The seed, the first argument (default 7), goes to the
experiments that declare one."""

import inspect
import os
import sys

from reflectionless.cli import _RUNNERS, main


def run_all(seed="7", out="out"):
    """Each subcommand's default run, into out/<name>; the worst exit code."""
    worst = 0
    for name, runner in _RUNNERS.items():
        print(f"=== {name} ===")
        args = [name, "--out", os.path.join(out, name)]
        if "seed" in inspect.signature(runner).parameters:
            args += ["--seed", seed]
        worst = max(worst, main(args))
    return worst


if __name__ == "__main__":
    sys.exit(run_all(*sys.argv[1:2]))

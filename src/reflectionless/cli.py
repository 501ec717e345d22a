"""Command-line surface: batch experiment runners with static outputs.

Subcommands: thm11 (lower-bound suite on an interval), oracle (perturbation
sweep), dr (forward asymptotics), aktable (extremal constants) and omega
(shift-window clustering).  A JSON config may set the keyword parameters of
the subcommand's runner and nothing else; a `--seed` flag exists where the
runner declares a seed.  Exit codes: 0 pass, 1 assertion failure, 2 config
or input error (any ValueError, an unknown config key, or an output
directory that cannot be written), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import traceback

from .errors import NumericError
from .experiments import (_resolve_config, run_extremal_table,
                          run_forward_asymptotics, run_lower_bound_suite,
                          run_perturbation_sweep, run_shift_clusters,
                          write_report)

_RUNNERS = {
    "thm11": run_lower_bound_suite,
    "oracle": run_perturbation_sweep,
    "dr": run_forward_asymptotics,
    "aktable": run_extremal_table,
    "omega": run_shift_clusters,
}

_HELP = {
    "thm11": "random admissible inputs over an interval; checks the a0 lower bound",
    "oracle": "perturbation families; checks deviations shrink with the perturbation",
    "dr": "semicircle plus off-band atoms; checks the coefficient tail trend",
    "aktable": "extremal constants vs |K|/4",
    "omega": "greedy clustering of shifted coefficient windows",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectionless",
        description="batch experiments for reflectionless Jacobi spectral theory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", default=None, help="JSON config file")
        if "seed" in inspect.signature(runner).parameters:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    name, out_dir = args.command, args.out or f"out/{args.command}"
    runner = _RUNNERS[name]
    try:
        params = _resolve_config(runner, args.config, seed=getattr(args, "seed", None))
        report = {"experiment": name, "config": params, **runner(**params)}
    except ValueError as exc:
        # ConfigError and the library's own input checks (a request larger
        # than the data supports, a jump outside its gap) are both input faults
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3
    try:
        paths = write_report(report, out_dir)
    except OSError as exc:
        print(f"config error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 2
    for a in report["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}")
    print(f"wrote {len(paths)} files to {out_dir}")
    if not report["passed"]:
        failing = [a["name"] for a in report["assertions"] if not a["passed"]]
        print(f"assertion failure in {name} with config {json.dumps(params)}: {failing}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

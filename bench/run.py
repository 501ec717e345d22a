"""Benchmark of the reflectionless library.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
lower-bound, recon-depth, extremal, green.  Each runs as one fresh
interpreter doing one closed loop of operations over inputs generated from
the seed, with BLAS and OpenMP pinned to one thread and numpy's huge-page
advice off.

--trace 0 reports the end-to-end metrics: setup_s (median over three fresh
interpreters, from spawn to the first timed operation), batch_s (the sum of
the operation times), op_p90_s and peak_rss_mb of the workload process.
The three times are wall times divided by the host's speed index, the time
of a fixed reference kernel relative to its nominal time (reference.py),
sampled on either side of each operation and right after set-up: they
read as seconds at the host's fast speed, and the drift of the shared
host's speed within and between runs cancels out.  The wall times and the
speed indices are in the details line.  --trace 1 runs every operation
twice, untraced and traced in alternating order, and reports the per-layer
metrics, the module import times from `python -X importtime` and the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run's
provenance and details.  The library is imported from ./src of the
checkout this file lives in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import LAYERS  # noqa: E402
from worker import PINNED_THREADS  # noqa: E402

WORKLOADS = ("lower-bound", "recon-depth", "extremal", "green")

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in PINNED_THREADS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on how fragmented the shared host's memory
    # is, and a granted page counts 2 MB resident at once.  Off, the peak
    # resident memory repeats from run to run.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], deadline: float):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"child exited with code {proc.returncode}: {' '.join(cmd)}")
    return proc


def worker(args, mode: str, deadline: float) -> dict:
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--spawned", repr(spawned)]
    out = run_child(cmd, deadline).stdout.strip().splitlines()
    if not out:
        raise BenchError(f"worker printed nothing in mode {mode}")
    return json.loads(out[-1])


def import_times(deadline: float) -> dict[str, float]:
    """Median over fresh interpreters of each layer's import self time and of
    the whole package's cumulative import time, from -X importtime."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import reflectionless"],
                         deadline)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue                 # the header line
            if name == "reflectionless":
                samples.setdefault("bench.import_s", []).append(cum_us / 1e6)
            layer = name.removeprefix("reflectionless.")
            if layer in LAYERS:
                samples.setdefault(f"{layer}.import_s", []).append(self_us / 1e6)
    expected = {f"{layer}.import_s" for layer in LAYERS} | {"bench.import_s"}
    if set(samples) != expected:
        raise BenchError(f"-X importtime did not report {sorted(expected - set(samples))}")
    return {k: statistics.median(v) for k, v in samples.items()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith(("_ratio", "_per_recon")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "reflectionless" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'reflectionless'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            res = worker(args, "trace", deadline)
            layers = {**res.pop("layers"), **import_times(deadline)}
            metrics = {k: metric(v, layer_unit(k)) for k, v in sorted(layers.items())}
            if res["traced_failed"] != res["failed"]:
                raise BenchError("traced and untraced batches disagree on failures")
        else:
            spawns = [worker(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
            res = worker(args, "run", deadline)
            spawns.append(res)
            setups = [r["setup_s"] for r in spawns]
            res["setup_s_samples"] = setups
            res["setup_wall_s_samples"] = [r["setup_wall_s"] for r in spawns]
            metrics = {"setup_s": metric(statistics.median(setups), "s"),
                       "batch_s": metric(res["batch_s"], "s"),
                       "op_p90_s": metric(res["op_p90_s"], "s"),
                       "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    # every failure must come from a documented defect zone
    correct = res["failed_unexpected"] == 0 and res["attempted"] >= 1
    print(json.dumps(res, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: import, build inputs, warm up, run the timed batch
and check every output.  Started by run.py in a fresh interpreter with BLAS
and OpenMP pinned to one thread; prints one JSON object.

Modes: `setup` stops after the warm-up and reports the set-up time only;
`run` also runs the timed batch; both report times divided by the host's
speed index from reference.py, with the wall times beside them.  `trace`
runs every operation twice, untraced and with the per-layer tracer on, for
the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_EVERY_S = 0.1     # spacing of speed probe samples in a timed batch
SETUP_PROBES = 30       # speed probe samples taken right after set-up


def monotonic() -> float:
    """System-wide clock, comparable between the parent and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_batch(ops, probe=None):
    """Run every operation in order; an exception is the operation's
    output.  With a speed probe, sample it before the first operation,
    after the last and between two operations whenever PROBE_EVERY_S has
    passed since the last sample; the probe's time is not counted.
    Returns (wall seconds of the operations, per-op seconds, outputs)."""
    gc.collect()
    times, outs = [0.0] * len(ops), [None] * len(ops)
    last = -math.inf
    for i, op in enumerate(ops):
        if probe is not None:
            if time.perf_counter() - last >= PROBE_EVERY_S:
                probe.sample()
                last = time.perf_counter()
            probe.mark_op()
        t0 = time.perf_counter()
        try:
            outs[i] = op.run()
        except Exception as exc:       # a raising operation counts as failed
            outs[i] = exc
        times[i] = time.perf_counter() - t0
    if probe is not None:
        probe.sample()
    return math.fsum(times), times, outs


def run_paired(ops, tracer):
    """Run every operation twice, once untraced and once traced, alternating
    which goes first, so that both passes see the same machine speed.
    Returns (untraced seconds, traced seconds, untraced outputs, traced
    outputs)."""
    gc.collect()
    spent = [0.0, 0.0]
    outs: list[list] = [[None] * len(ops), [None] * len(ops)]
    for i, op in enumerate(ops):
        for traced in ((0, 1) if i % 2 == 0 else (1, 0)):
            tracer.active = bool(traced)
            t0 = time.perf_counter()
            try:
                outs[traced][i] = op.run()
            except Exception as exc:
                outs[traced][i] = exc
            spent[traced] += time.perf_counter() - t0
    tracer.active = False
    return spent[0], spent[1], outs[0], outs[1]


def failed_flags(ops, outs) -> list[bool]:
    """An operation fails if it raised or its output misses its check."""
    flags = []
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            flags.append(True)
            continue
        try:
            flags.append(not op.check(out))
        except Exception:
            flags.append(True)
    return flags


def tally(ops, flags) -> dict:
    by_kind: dict[str, list[int]] = {}
    for op, bad in zip(ops, flags):
        row = by_kind.setdefault(op.kind, [0, 0, 0])  # attempted, failed, known
        row[0] += 1
        row[1] += bad
        row[2] += bad and op.known_defect
    failed = sum(flags)
    known = sum(1 for op, bad in zip(ops, flags) if bad and op.known_defect)
    return {"attempted": len(ops), "failed": failed, "failed_known_defect": known,
            "failed_unexpected": failed - known,
            "by_kind": {k: dict(zip(("attempted", "failed", "known_defect"), v))
                        for k, v in sorted(by_kind.items())}}


def input_digest(ops) -> str:
    data = json.dumps([[op.kind, op.spec] for op in ops], sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(values), q))


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": git_commit(ROOT),
            "workload": workload, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="monotonic clock reading taken just before this process was started")
    args = ap.parse_args(argv)

    import reflectionless
    src = (ROOT / "src").resolve()
    if src not in Path(reflectionless.__file__).resolve().parents:
        print(f"imported reflectionless from {reflectionless.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    import workloads
    wl = workloads.BY_NAME[args.workload](args.seed, args.seconds / 10.0)
    gc.collect()            # the heap at warm-up holds only the inputs
    for op in wl.warmups:
        op.run()
    setup_wall_s = monotonic() - args.spawned
    # wall times are divided by the host's speed index (see reference.py),
    # sampled right after set-up and between the operations of the batch
    import reference
    probe = reference.SpeedProbe()
    probe.warm()
    for _ in range(SETUP_PROBES):
        probe.sample()
    setup = {"setup_s": setup_wall_s / probe.index(wl.reference),
             "setup_wall_s": setup_wall_s, "setup_speed_index": probe.index(wl.reference)}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    if args.mode == "run":
        probe = reference.SpeedProbe()
        batch_wall_s, times, outs = run_batch(wl.ops, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # each operation's time over the speed index of the probe samples
        # on either side of it
        scaled = [t / f for t, f in zip(times, probe.local_indices(wl.reference))]
        result = {**setup, "batch_s": math.fsum(scaled),
                  "op_median_s": quantile(scaled, 0.5), "op_p90_s": quantile(scaled, 0.9),
                  "peak_rss_mb": peak_rss_mb, "samples": len(times),
                  "batch_wall_s": batch_wall_s, "op_p90_wall_s": quantile(times, 0.9),
                  "reference": wl.reference, **probe.summary()}
    else:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        plain_s, traced_s, outs, traced_outs = run_paired(wl.ops, tracer)
        result = {"traced_failed": sum(failed_flags(wl.ops, traced_outs)),
                  "layers": {**tracer.metrics(),
                             "bench.trace_overhead_ratio": traced_s / plain_s}}
    result.update(input_digest=input_digest(wl.ops), **tally(wl.ops, failed_flags(wl.ops, outs)))
    result["provenance"] = provenance(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

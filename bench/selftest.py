"""Self-test of the benchmark harness, on tiny workloads.

    python3 bench/selftest.py

Checks that the same seed gives identical input digests (and another seed
different ones), that a deliberately corrupted output is counted as failed
for every operation kind, that a tiny pass of every workload completes in
seconds with no failure outside the documented defect zones, that the
speed probe brackets every operation of a batch, and that two traced passes
with the same seed give identical per-layer counts.
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layertrace  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from worker import failed_flags, input_digest, run_batch, tally  # noqa: E402

TINY = 0.02          # share of a 10-second run


def _corrupt_coefficients(rec):
    a = list(rec.a_window)
    a[-1] *= 1e-3                    # below any A(K) and far from exact values
    return type(rec)(rec.n_lo, rec.n_hi, tuple(a), rec.b_window, rec.tail)


def _corrupt_extremal(res):
    return type(res)(res.constant * 1.5, res.jumps, res.objective_value, res.bound_used)


CORRUPT = {
    "pipeline": lambda out: (out[0] * 0.25, out[1], out[2]),
    "semicircle": _corrupt_coefficients,
    "dr": _corrupt_coefficients,
    "canonical": _corrupt_coefficients,
    "recursion": lambda g: g.conjugate(),
    "truncation": lambda g: g.conjugate(),
    "residual": lambda r: r + 1.0,
}


def corrupt(kind, out):
    fn = CORRUPT.get(kind, _corrupt_extremal if kind.startswith(("gaps", "affine")) else None)
    return fn(out)


class HarnessTest(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for name, make in workloads.BY_NAME.items():
            with self.subTest(workload=name):
                first = input_digest(make(7, TINY).ops)
                self.assertEqual(first, input_digest(make(7, TINY).ops))
                self.assertNotEqual(first, input_digest(make(8, TINY).ops))

    def test_tiny_pass_and_corrupted_outputs(self):
        for name, make in workloads.BY_NAME.items():
            with self.subTest(workload=name):
                start = time.perf_counter()
                wl = make(3, TINY)
                for op in wl.warmups:
                    op.run()
                _, times, outs = run_batch(wl.ops)
                flags = failed_flags(wl.ops, outs)
                self.assertLess(time.perf_counter() - start, 30.0)
                self.assertEqual(len(times), len(wl.ops))
                self.assertEqual(tally(wl.ops, flags)["failed_unexpected"], 0)
                base = sum(flags)
                kinds_seen = set()
                for i, (op, bad) in enumerate(zip(wl.ops, flags)):
                    if bad or op.kind in kinds_seen:
                        continue
                    kinds_seen.add(op.kind)
                    spoiled = list(outs)
                    spoiled[i] = corrupt(op.kind, outs[i])
                    self.assertEqual(sum(failed_flags(wl.ops, spoiled)), base + 1,
                                     f"corrupted {op.kind} output not counted")
                self.assertTrue(kinds_seen)

    def test_speed_probe_brackets_every_op(self):
        wl = workloads.BY_NAME["lower-bound"](3, TINY)
        probe = reference.SpeedProbe()
        _, times, _ = run_batch(wl.ops, probe)
        local = probe.local_indices(wl.reference)
        self.assertEqual(len(local), len(times))
        self.assertTrue(all(f > 0 for f in local))
        self.assertGreaterEqual(len(probe.samples["interp"]), 2)

    def test_traced_counts_repeat(self):
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            for name, make in workloads.BY_NAME.items():
                with self.subTest(workload=name):
                    passes = []
                    for _ in range(2):
                        wl = make(5, TINY)
                        tracer.reset()
                        tracer.active = True
                        run_batch(wl.ops)
                        tracer.active = False
                        passes.append({k: v for k, v in tracer.metrics().items()
                                       if not k.endswith("_s")})
                    self.assertEqual(passes[0], passes[1])
                    self.assertGreater(sum(v for k, v in passes[0].items()
                                           if k.endswith(".calls")), 0)
        finally:
            tracer.uninstall()


if __name__ == "__main__":
    unittest.main()

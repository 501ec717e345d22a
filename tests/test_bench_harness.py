"""The benchmark's self-test runs as part of the test suite, so a change to
a hook it relies on (the public `lanczos_tridiag`, the Lanczos breakdown
message) shows up here."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

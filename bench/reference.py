"""Host speed probe: fixed reference kernels timed between operations.

The host this benchmark runs on is a share of a machine that others use
too; its speed drifts by up to 1.7x in phases of a fraction of a second to
tens of seconds, which moves every wall time by about the same factor.
Two kernels that depend on nothing in the library are timed between the
operations of a batch: `interp`, interpreter-bound code (loops, small
containers, numpy calls on tiny arrays), and `array`, numpy on arrays
larger than the L2 cache plus a small BLAS product.  A kernel's time
divided by a fixed nominal time is the host's speed index at that moment;
the benchmark divides each operation's wall time by the index measured on
either side of it, so its times read as seconds at the nominal speed.

Each workload names the kernel that matches the kind of work it does.  The
library cannot change a kernel, so a change that makes the library faster
lowers the scaled times just as it lowers the wall times.

A sample runs each kernel twice and times the second run, so that the
index does not depend on what the preceding operation left in the caches.
The kernels write into preallocated buffers and keep nothing: a sample
leaves the heap as it found it, whenever it runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel times at the fast speed of a 2-vCPU x86-64 host (10th percentile
# of 400 samples; Python 3.11, numpy with OpenBLAS on one thread).
NOMINAL_S = {"interp": 1.0e-3, "array": 1.4e-3}

_rng = np.random.default_rng(20240601)
_TINY = _rng.random(8)
_VEC = _rng.random(30_000)                   # 240 kB
_MAT = _rng.random((600, 640))               # 3 MB, larger than L2
_U = _rng.random(640)
_SQ = _rng.random((120, 120))
_BUF = {"vec": np.empty_like(_VEC), "tiny": np.empty_like(_TINY),
        "mu": np.empty(600), "mtu": np.empty(640), "sq": np.empty_like(_SQ)}


def interp_kernel() -> float:
    s = 0.0
    for i in range(3600):
        s += (i % 7) * 0.5 - (i % 3)
    table = {}
    for i in range(900):
        table[i] = (i, i * 0.5, -i)
    for k in range(0, 900, 3):
        s += table[k][1]
    tiny = _BUF["tiny"]
    for _ in range(180):
        s += float(np.add(_TINY, s * 1e-9, out=tiny).sum())
    return s


def array_kernel() -> float:
    x = _BUF["vec"]
    np.copyto(x, _VEC)
    for _ in range(2):
        np.sin(x, out=x)
        np.multiply(x, 1.0001, out=x)
        np.abs(x, out=x)
        np.sqrt(x, out=x)
    np.matmul(_MAT, _U, out=_BUF["mu"])
    np.matmul(_MAT.T, _BUF["mu"], out=_BUF["mtu"])
    np.matmul(_SQ, _SQ, out=_BUF["sq"])
    return float(x[0] + _BUF["mtu"][0] + _BUF["sq"][0, 0])


KERNELS = {"interp": interp_kernel, "array": array_kernel}


class SpeedProbe:
    """Times both kernels on every `sample()`.  `index(kind)` is the mean
    time of that kernel over the samples divided by its nominal time;
    `local_indices(kind)` gives one index per operation marked with
    `mark_op()`, from the samples just before and just after it."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {k: [] for k in KERNELS}
        self.op_segment: list[int] = []       # samples taken before each op

    def mark_op(self) -> None:
        self.op_segment.append(len(self.samples["interp"]))

    def sample(self) -> None:
        for kind, kernel in KERNELS.items():
            kernel()
            t0 = time.perf_counter()
            kernel()
            self.samples[kind].append(time.perf_counter() - t0)

    def warm(self, n: int = 5) -> None:
        for kernel in KERNELS.values():
            for _ in range(n):
                kernel()

    def index(self, kind: str) -> float:
        return statistics.fmean(self.samples[kind]) / NOMINAL_S[kind]

    def local_indices(self, kind: str) -> list[float]:
        t, nominal = self.samples[kind], NOMINAL_S[kind]
        return [0.5 * (t[k - 1] + t[k]) / nominal for k in self.op_segment]

    def summary(self) -> dict:
        return {"probes": len(self.samples["interp"]),
                **{f"speed_index_{k}": self.index(k) for k in KERNELS}}

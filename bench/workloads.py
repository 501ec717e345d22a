"""Seeded inputs, timed operations and output checks of the four workloads.

Inputs come from this file's own numpy code, never from
`reflectionless.experiments`, so a change to the library cannot change what
a workload runs.  Every library call goes through the package namespace
(`rf.<name>`) at call time, which is where the traced run installs its
wrappers.

A workload is a list of `Op`s in a fixed order.  Its composition (how many
operations of each kind and size) is fixed per second of requested run
time; the seed only moves the geometry inside each stratum, so two seeds
do the same amount of work on different inputs.

Two known defects of the library are left in view, not steered around:
reconstruction deeper than about 0.55 of the quadrature nodes returns wrong
coefficients without raising, and `restrict` to a window whose length is
not a multiple of the period puts a periodic tail out of phase.  Operations
whose input lies in one of these zones are marked `known_defect`; they are
run and checked like every other operation, so the defects show up as
failed operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reflectionless as rf

# Default rule size of reconstruct_coefficients; past about 0.55 of the
# nodes it uses, it returns wrong deep coefficients without raising.
_RECON_NODES = 400
_SAFE_DEPTH_RATIO = 0.5


@dataclass
class Op:
    """One timed library call and the check its output must pass."""

    kind: str
    spec: dict                       # plain-data description of the input
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    known_defect: bool = False       # input lies in a documented defect zone


@dataclass
class Workload:
    ops: list[Op]
    warmups: list[Op]                # untimed, one per kind, fill lazy caches
    reference: str = "interp"        # speed probe kernel (reference.py) that
                                     # slows down as this workload does


# ---------------------------------------------------------------------------
# shared input generators
# ---------------------------------------------------------------------------

def _f(x) -> float:
    return round(float(x), 12)


def random_bands(rng: np.random.Generator, n_bands: int) -> tuple:
    """n_bands disjoint bands: widths in [0.4, 1.6], gaps in [0.25, 1.0],
    placed around the origin."""
    widths = rng.uniform(0.4, 1.6, n_bands)
    gaps = rng.uniform(0.25, 1.0, n_bands - 1)
    total = widths.sum() + gaps.sum()
    x = _f(-0.5 * total + rng.uniform(-0.5, 0.5))
    bands = []
    for i in range(n_bands):
        c, d = x, _f(x + widths[i])
        bands.append((c, d))
        if i < n_bands - 1:
            x = _f(d + gaps[i])
    return tuple(bands)


def _region_pieces(rng: np.random.Generator, lo: float, hi: float) -> list:
    """(lo, hi) split into one or two pieces with values in {0, 1/2, 1}."""
    n = 1 if hi - lo < 0.2 or rng.random() < 0.5 else 2
    cuts = [lo, hi] if n == 1 else [lo, _f(rng.uniform(lo + 0.1, hi - 0.1)), hi]
    vals = rng.choice([0.0, 0.5, 1.0], size=n)
    return [(cuts[i], cuts[i + 1], float(vals[i])) for i in range(n)]


def random_krein_pieces(rng: np.random.Generator, bands: tuple) -> tuple[float, list]:
    """An admissible Krein function as (R, pieces): 1/2 on the bands, random
    values in {0, 1/2, 1} off them, R = max|K| + U(0.5, 2)."""
    lo, hi = bands[0][0], bands[-1][1]
    r = _f(max(abs(lo), abs(hi)) + rng.uniform(0.5, 2.0))
    pieces = [(c, d, 0.5) for c, d in bands]
    regions = [(-r, lo)] + [(d0, c1) for (_, d0), (c1, _) in zip(bands, bands[1:])] + [(hi, r)]
    for a, b in regions:
        pieces += _region_pieces(rng, a, b)
    return r, sorted(pieces)


def _atom_positions(pieces: list) -> list[float]:
    """Breakpoints where the step function jumps from 0 straight to 1 (the
    atoms of its measure)."""
    return [b0 for (_, b0, v0), (_, _, v1) in zip(pieces, pieces[1:])
            if v0 == 0.0 and v1 == 1.0]


def random_selector(rng: np.random.Generator, r: float, bands: tuple,
                    pieces: list) -> tuple[list, list]:
    """f as (intervals, atom weights): a random subinterval of some off-K
    regions with a value in [0, 1], and random weights on most atoms."""
    lo, hi = bands[0][0], bands[-1][1]
    regions = [(-r, lo)] + [(d0, c1) for (_, d0), (c1, _) in zip(bands, bands[1:])] + [(hi, r)]
    intervals = []
    for a, b in regions:
        if b - a <= 0.05 or rng.random() < 0.5:
            continue
        x0 = _f(rng.uniform(a, b - 0.02))
        x1 = _f(rng.uniform(x0 + 0.01, b))
        intervals.append((x0, x1, _f(rng.uniform(0.0, 1.0))))
    weights = [(x, _f(rng.uniform(0.0, 1.0))) for x in _atom_positions(pieces)
               if rng.random() < 0.7]
    return intervals, weights


def _log_stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """n values, one per equal stratum of log[lo, hi], in stratum order: the
    seed moves each value inside its stratum only."""
    u = (np.arange(n) + rng.random(n)) / n
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# The order of the operations is a fixed shuffle, the same for every seed:
# the seed moves inputs, not the sequence of sizes, which sets the heap's
# peak and which operations run next to each other.
_ORDER_SEED = 0


def _interleave(groups: list[list[Op]], order_rng: np.random.Generator) -> list[Op]:
    ops = [op for g in groups for op in g]
    order = order_rng.permutation(len(ops))
    return [ops[i] for i in order]


def _n_ops(per_run: int, scale: float) -> int:
    return max(1, int(round(per_run * scale)))


def extremal_constant(bands: tuple) -> float:
    """A(K): closed form for an interval, the library's minimizer otherwise
    (called outside the timed batch)."""
    if len(bands) == 1:
        return (bands[0][1] - bands[0][0]) / 4.0
    return rf.minimize_mass(rf.CompactSet(bands)).constant


# ---------------------------------------------------------------------------
# lower-bound: the thm11 pipeline on random admissible (xi, f)
# ---------------------------------------------------------------------------

def _pipeline(xi, k_set, f, n_coeffs):
    rho = rf.stieltjes_invert(rf.HerglotzRep(xi))
    nu = rf.half_line_measure(rho, k_set, f)
    mass = rf.total_mass(nu)
    rec = rf.reconstruct_coefficients(nu, n_coeffs)
    canon = rf.flow_to_canonical(xi, k_set)
    return mass, rec, canon


def lower_bound(seed: int, scale: float) -> Workload:
    """Each operation: stieltjes_invert -> half_line_measure -> total_mass
    -> reconstruct_coefficients(N <= 20) -> flow_to_canonical.  Check:
    a_0 >= A(K) - 1e-6 and a_0^2 equal to the total mass."""
    rng = np.random.default_rng([seed, 1])
    pool = [random_bands(rng, nb) for nb in (2, 2, 3, 3, 4, 4)]
    pool_a = [extremal_constant(b) for b in pool]
    n = _n_ops(4200, scale)

    def make(i, sub):
        if i % 2 == 0:
            c, w = _f(sub.uniform(-1.0, 1.0)), _f(sub.uniform(1.0, 4.0))
            bands, a_k = ((c - w / 2, c + w / 2),), w / 4.0
        else:
            j = (i // 2) % len(pool)
            bands, a_k = pool[j], pool_a[j]
        r, pieces = random_krein_pieces(sub, bands)
        f_iv, f_at = random_selector(sub, r, bands, pieces)
        n_coeffs = int(sub.integers(4, 21))
        xi = rf.StepFunction.from_pieces(r, pieces)
        k_set = rf.CompactSet(bands)
        f = rf.FSelector(tuple(f_iv), tuple(f_at))

        def check(out, a_k=a_k):
            mass, rec, _ = out
            a0 = rec.a(0)
            return a0 >= a_k - 1e-6 and abs(a0 * a0 - mass) <= 1e-12 * max(1.0, mass)

        spec = {"bands": bands, "R": r, "xi": pieces, "f": [f_iv, f_at],
                "N": n_coeffs, "A": a_k}
        return Op("pipeline", spec, lambda: _pipeline(xi, k_set, f, n_coeffs), check)

    ops = [make(i, np.random.default_rng([seed, 2, i])) for i in range(n)]
    warm = [make(0, np.random.default_rng([seed, 3, 0])),
            make(1, np.random.default_rng([seed, 3, 1]))]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# recon-depth: reconstruct_coefficients at depths 50..1000
# ---------------------------------------------------------------------------

def _half_line(bands: tuple, masses: tuple = ()) -> Any:
    k_set = rf.CompactSet(bands)
    xi = rf.canonical_krein_from_jumps(k_set, rf.GapJumps(masses))
    rho = rf.stieltjes_invert(rf.HerglotzRep(xi))
    return rf.half_line_measure(rho, k_set, rf.FSelector())


def _safe_depth(n_coeffs: int, ac_pieces: int) -> bool:
    """Inside the depth the default node schedule resolves: nodes per piece
    start at 400 and double until the support holds N + 1 points."""
    if ac_pieces == 0:
        return True
    nodes = _RECON_NODES
    while ac_pieces * nodes < n_coeffs + 1:
        nodes *= 2
    return n_coeffs <= _SAFE_DEPTH_RATIO * nodes


def _coeff_arrays(rec, n_coeffs):
    a = np.array(rec.a_window[1:n_coeffs + 1])
    b = np.array(rec.b_window[1:n_coeffs + 1])
    return a, b


def _depth_schedule(per_family: int) -> list[int]:
    """Depths 50 .. 1000, denser at the shallow end (reconstruction cost
    grows about as depth^3): N_i = 50 * 20^((i / (n-1))^3)."""
    if per_family == 1:
        return [50]
    return [int(round(50 * 20 ** ((i / (per_family - 1)) ** 3))) for i in range(per_family)]


def recon_depth(seed: int, scale: float) -> Workload:
    """Three measure families, each at the same fixed schedule of depths
    from 50 to 1000: semicircle images (exact a_n = A, b_n = B), semicircle
    plus off-band atoms (last 20 coefficients equal to the free values to
    1e-12) and canonical 2-3 band measures (every a_n >= A(K) - 1e-9)."""
    rng = np.random.default_rng([seed, 1])
    pool = [random_bands(rng, nb) for nb in (2, 2, 3, 3)]
    pool_a = [extremal_constant(b) for b in pool]

    def semicircle(n_coeffs, sub):
        a_c, b_c = _f(sub.uniform(0.5, 1.5)), _f(sub.uniform(-1.0, 1.0))
        nu = _half_line(((b_c - 2 * a_c, b_c + 2 * a_c),))
        tol = 1e-9 * max(1.0, a_c + abs(b_c))

        def check(rec):
            a, b = _coeff_arrays(rec, n_coeffs)
            return (abs(rec.a(0) - a_c) <= tol and bool(np.all(np.abs(a - a_c) <= tol))
                    and bool(np.all(np.abs(b - b_c) <= tol)))

        return Op("semicircle", {"A": a_c, "B": b_c, "N": n_coeffs},
                  lambda: rf.reconstruct_coefficients(nu, n_coeffs), check,
                  known_defect=not _safe_depth(n_coeffs, 1))

    def dr(n_coeffs, sub):
        # 1-3 atoms in distinct slots [2.5, 2.7], [2.9, 3.1], [3.3, 3.5] on
        # either side: spaced at least 0.2 apart, the true coefficients
        # reach the free values to 1e-14 by n = 31, the first tail index
        k = int(sub.integers(1, 4))
        slots = sub.choice(6, k, replace=False)
        pos = sorted(_f((1.0 if s >= 3 else -1.0) * (2.5 + 0.4 * (s % 3) + sub.uniform(0, 0.2)))
                     for s in slots)
        atoms = tuple((p, _f(m)) for p, m in zip(pos, sub.uniform(0.1, 0.5, k)))
        nu = rf.SpectralMeasure(rf.HerglotzRep(rf.free_krein(2.0)),
                                (rf.AcPiece(-2.0, 2.0, 0.5),), atoms)

        def check(rec):
            a, b = _coeff_arrays(rec, n_coeffs)
            tail = slice(max(0, n_coeffs - 20), n_coeffs)
            return bool(np.all(np.abs(a[tail] - 1.0) + np.abs(b[tail]) <= 1e-12))

        return Op("dr", {"atoms": atoms, "N": n_coeffs},
                  lambda: rf.reconstruct_coefficients(nu, n_coeffs), check,
                  known_defect=not _safe_depth(n_coeffs, 1))

    def canonical(n_coeffs, sub, j):
        bands, a_k = pool[j], pool_a[j]
        widths = [c1 - d0 for (_, d0), (c1, _) in zip(bands, bands[1:])]
        masses = tuple(_f(w * sub.uniform(0.0, 1.0)) for w in widths)
        nu = _half_line(bands, masses)

        def check(rec):
            a, _ = _coeff_arrays(rec, n_coeffs)
            return rec.a(0) >= a_k - 1e-9 and bool(np.all(a >= a_k - 1e-9))

        return Op("canonical", {"bands": bands, "jumps": masses, "N": n_coeffs},
                  lambda: rf.reconstruct_coefficients(nu, n_coeffs), check,
                  known_defect=not _safe_depth(n_coeffs, len(bands)))

    depths = _depth_schedule(_n_ops(34, scale))
    ops = [semicircle(n_coeffs, np.random.default_rng([seed, 2, 0, i]))
           for i, n_coeffs in enumerate(depths)]
    ops += [dr(n_coeffs, np.random.default_rng([seed, 2, 1, i]))
            for i, n_coeffs in enumerate(depths)]
    # the pool set (2 or 3 bands) follows the depth index, so every seed
    # puts the same number of pieces at each depth
    ops += [canonical(n_coeffs, np.random.default_rng([seed, 2, 2, i]), i % len(pool))
            for i, n_coeffs in enumerate(depths)]
    # one shallow call per family, and one at the deepest depth on a
    # one-piece measure, which needs the largest quadrature rule
    wrng = np.random.default_rng([seed, 3])
    warm = [semicircle(50, wrng), dr(50, wrng), canonical(50, wrng, 0),
            semicircle(max(depths), wrng)]
    return Workload(_interleave([ops], np.random.default_rng(_ORDER_SEED)), warm, "array")


# ---------------------------------------------------------------------------
# extremal: minimize_mass on sets with 0-4 gaps
# ---------------------------------------------------------------------------

# operations per 10 s of run time by number of gaps (4 gaps cost ~2 s
# each); the 90th percentile of the operation times falls among the 3-gap
# operations, and the few 4-gap ones are not most of the batch
_EXTREMAL_MIX = {0: 10, 1: 20, 2: 30, 3: 24, 4: 1}
_AFFINE_PAIRS = 10          # extra 1-gap operations on affine images


def _consistent(res) -> bool:
    """The constant is positive and is the root of the reported minimum."""
    return res.constant > 0 and abs(res.constant ** 2 - res.objective_value) <= \
        1e-12 * res.objective_value


def extremal(seed: int, scale: float) -> Workload:
    """Checks: an interval matches (d - c)/4 to 1e-8; an affine image
    alpha*K + beta gives alpha*A(K) to 1e-8 relative; no result lies above
    the coarse grid oracle (computed outside the batch)."""
    groups = []
    for gaps, per_run in _EXTREMAL_MIX.items():
        ops = []
        for i in range(_n_ops(per_run, scale)):
            sub = np.random.default_rng([seed, 2, gaps, i])
            bands = random_bands(sub, gaps + 1)
            k_set = rf.CompactSet(bands)
            if gaps == 0:
                closed = (bands[0][1] - bands[0][0]) / 4.0

                def check(res, closed=closed):
                    return _consistent(res) and abs(res.constant - closed) <= 1e-8
            else:
                oracle = rf.grid_min_mass(k_set, grid=9 if gaps < 4 else 5).constant

                def check(res, oracle=oracle):
                    return _consistent(res) and res.constant <= oracle * (1.0 + 1e-9)
            ops.append(Op(f"gaps{gaps}", {"bands": bands},
                          lambda k_set=k_set: rf.minimize_mass(k_set), check))
        groups.append(ops)
    pairs = []
    for i in range(_n_ops(_AFFINE_PAIRS, scale)):
        sub = np.random.default_rng([seed, 3, i])
        bands = random_bands(sub, 2)
        alpha, beta = _f(sub.uniform(0.5, 2.0)), _f(sub.uniform(-1.0, 1.0))
        base = rf.CompactSet(bands)
        image = base.affine(alpha, beta)
        ref = {}

        def run_base(base=base, ref=ref):
            res = rf.minimize_mass(base)
            ref["A"] = res.constant
            return res

        def check_image(res, alpha=alpha, ref=ref):
            a_ref = alpha * ref.get("A", math.nan)
            return _consistent(res) and abs(res.constant - a_ref) <= 1e-8 * a_ref

        # the base runs first in the batch and records its constant; the
        # image is checked against alpha times that constant
        pairs.append([Op("affine-base", {"bands": bands}, run_base, _consistent),
                      Op("affine-image", {"bands": bands, "alpha": alpha, "beta": beta},
                         lambda image=image: rf.minimize_mass(image), check_image)])
    order_rng = np.random.default_rng(_ORDER_SEED)
    ops = _interleave(groups, order_rng)
    for pair in pairs:                 # keep each base before its image
        at = int(order_rng.integers(0, len(ops) + 1))
        ops[at:at] = pair
    wrng = np.random.default_rng([seed, 4])
    warm = [Op("gaps0", {}, lambda k=rf.CompactSet(random_bands(wrng, 1)): rf.minimize_mass(k),
               lambda res: True),
            Op("gaps2", {}, lambda k=rf.CompactSet(random_bands(wrng, 3)): rf.minimize_mass(k),
               lambda res: True)]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# green: green_diag by both methods and reflectionless_residual
# ---------------------------------------------------------------------------

def random_operator(rng: np.random.Generator):
    """A window of 1..60 random sites with a free, constant or periodic
    (period 2-3) tail."""
    kind = ("free", "constant", "periodic")[int(rng.integers(0, 3))]
    if kind == "free":
        tail = rf.Tail.free()
    elif kind == "constant":
        tail = rf.Tail.constant(_f(rng.uniform(0.5, 1.5)), _f(rng.uniform(-0.5, 0.5)))
    else:
        p = int(rng.integers(2, 4))
        tail = rf.Tail.periodic([_f(x) for x in rng.uniform(0.5, 1.5, p)],
                                [_f(x) for x in rng.uniform(-0.5, 0.5, p)])
    n_lo = int(rng.integers(-30, 1))
    w = int(rng.integers(1, 61))
    a = tuple(_f(x) for x in rng.uniform(0.5, 1.5, w))
    b = tuple(_f(x) for x in rng.uniform(-1.0, 1.0, w))
    return rf.JacobiCoefficients(n_lo, n_lo + w - 1, a, b, tail)


def periodic_bands(a_block, b_block) -> list[tuple[float, float]]:
    """Spectrum of the periodic operator: the 2p eigenvalues of its
    periodic and antiperiodic p x p blocks, sorted, pair up into bands."""
    p = len(a_block)
    if p == 1:
        return [(b_block[0] - 2.0 * a_block[0], b_block[0] + 2.0 * a_block[0])]
    eig = []
    for sign in (1.0, -1.0):
        m = np.diag(np.asarray(b_block, dtype=float))
        for i in range(p - 1):
            m[i, i + 1] = m[i + 1, i] = a_block[i]
        m[p - 1, 0] += sign * a_block[p - 1]
        m[0, p - 1] = m[p - 1, 0]
        eig.extend(np.linalg.eigvalsh(m).tolist())
    eig.sort()
    return [(eig[2 * k], eig[2 * k + 1]) for k in range(p)]


def green(seed: int, scale: float) -> Workload:
    """Recursion at Im z in [1e-6, 0.5] (checked against Herglotz and
    resolvent bounds), recursion/truncation pairs at Im z in [0.05, 0.5]
    (agree to 1e-9), and residuals of restricted periodic operators on their
    inner bands (<= 1e-8; a window whose length is not a multiple of the
    period breaks the tail phase, a known defect)."""
    rng = np.random.default_rng([seed, 1])
    groups = []

    def site_and_z(sub, j, eta):
        n = int(sub.integers(j.n_lo - 5, j.n_hi + 6))
        return n, complex(_f(sub.uniform(-3.0, 3.0)), _f(eta))

    ops = []
    etas = _log_stratified(rng, 1e-6, 0.5, _n_ops(4000, scale))
    for i, eta in enumerate(etas):
        sub = np.random.default_rng([seed, 2, i])
        j = random_operator(sub)
        n, z = site_and_z(sub, j, eta)

        def check(g, z=z):
            return g.imag > 0 and abs(g) <= 1.0 / z.imag * (1 + 1e-12)

        ops.append(Op("recursion", {"J": j.to_dict(), "n": n, "z": [z.real, z.imag]},
                      lambda j=j, n=n, z=z: rf.green_diag(j, n, z), check))
    groups.append(ops)

    ops = []
    etas = _log_stratified(rng, 0.05, 0.5, _n_ops(2100, scale))
    for i, eta in enumerate(etas):
        sub = np.random.default_rng([seed, 3, i])
        j = random_operator(sub)
        n, z = site_and_z(sub, j, eta)
        ref = rf.green_diag(j, n, z)

        def check(g, ref=ref):
            return abs(g - ref) <= 1e-9

        ops.append(Op("truncation", {"J": j.to_dict(), "n": n, "z": [z.real, z.imag]},
                      lambda j=j, n=n, z=z: rf.green_diag(j, n, z, method="truncation"),
                      check))
    groups.append(ops)

    ops = []
    for i in range(_n_ops(1000, scale)):
        sub = np.random.default_rng([seed, 4, i])
        p = 1 + i % 3
        a_blk = [_f(x) for x in sub.uniform(0.5, 1.5, p)]
        b_blk = [_f(x) for x in sub.uniform(-1.0, 1.0, p)]
        length = int(sub.integers(1, 41))
        j = rf.JacobiCoefficients.periodic(a_blk, b_blk).restrict(0, length - 1)
        inner = tuple((c + 0.1 * (d - c), d - 0.1 * (d - c))
                      for c, d in periodic_bands(a_blk, b_blk))
        m_set = rf.CompactSet(inner)
        ops.append(Op("residual", {"a": a_blk, "b": b_blk, "length": length},
                      lambda j=j, m_set=m_set: rf.reflectionless_residual(j, m_set, grid=8),
                      lambda r: r <= 1e-8, known_defect=length % p != 0))
    groups.append(ops)

    wrng = np.random.default_rng([seed, 5])
    wj = random_operator(wrng)
    warm = [Op("recursion", {}, lambda: rf.green_diag(wj, 0, 0.3 + 0.01j), lambda g: True),
            Op("truncation", {}, lambda: rf.green_diag(wj, 0, 0.3 + 0.2j, method="truncation"),
               lambda g: True),
            Op("residual", {}, lambda: rf.reflectionless_residual(
                rf.JacobiCoefficients.periodic([1.0], [0.0]),
                rf.CompactSet(((-1.0, 1.0),)), grid=4), lambda r: True)]
    return Workload(_interleave(groups, np.random.default_rng(_ORDER_SEED)), warm)


BY_NAME = {"lower-bound": lower_bound, "recon-depth": recon_depth,
           "extremal": extremal, "green": green}

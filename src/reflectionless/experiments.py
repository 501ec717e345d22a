"""Reproducible experiment runners behind the CLI.

Each runner declares its parameters as keyword arguments, whose defaults
are its default run, and returns a report dict (per-row data, named
assertions, plots).  It depends on nothing but its arguments, so identical
arguments give byte-identical outputs.  `_resolve_config` turns a JSON
config into those arguments and refuses any key the runner does not
declare.  Samples are generated from per-index child seeds; a failing
assertion names the sample index so a run can be replayed.

All underlying operations are pure functions of immutable values, so
samples could evaluate in parallel; the runners here evaluate them
sequentially in index order to keep reduction order fixed.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import os

import numpy as np

from .errors import NumericError
from .extremal import minimize_mass
from .gapflow import GapJumps, canonical_krein_from_jumps, flow_to_canonical
from .inverse import (coefficient_deviation, reconstruct_coefficients,
                      reconstruction_report)
from .krein import HerglotzRep, StepFunction, free_krein
from .measures import FSelector, SpectralMeasure, AcPiece, half_line_measure, \
    stieltjes_invert
from .operators import JacobiCoefficients
from .sets import CompactSet

__all__ = [
    "random_admissible_krein",
    "random_f_selector",
    "approximate_omega_limit",
    "run_lower_bound_suite",
    "run_perturbation_sweep",
    "run_forward_asymptotics",
    "run_extremal_table",
    "run_shift_clusters",
    "write_report",
]


# ---------------------------------------------------------------------------
# random admissible inputs
# ---------------------------------------------------------------------------

def _random_region_pieces(rng: np.random.Generator, lo: float, hi: float) -> list:
    """Split (lo, hi) into 1 or 2 pieces with values in {0, 1/2, 1}, cut at
    least 0.1 from either end."""
    n = int(rng.integers(1, 3))
    if hi - lo < n * 0.1:
        n = 1
    cuts = [lo, hi] if n == 1 else \
        [lo] + sorted(rng.uniform(lo + 0.1, hi - 0.1, n - 1).tolist()) + [hi]
    values = rng.choice([0.0, 0.5, 1.0], size=n)
    return [(cuts[i], cuts[i + 1], float(values[i])) for i in range(n)]


def random_admissible_krein(rng: np.random.Generator, k_set: CompactSet,
                            bound: float | None = None) -> StepFunction:
    """Random step function with xi = 1/2 on K and values in {0, 1/2, 1}
    elsewhere; R <= max|K| + 2."""
    r = bound if bound is not None else max(abs(k_set.min), abs(k_set.max)) + \
        float(rng.uniform(0.5, 2.0))
    pieces = [(c, d, 0.5) for c, d in k_set.intervals]
    if k_set.min > -r:
        pieces += _random_region_pieces(rng, -r, k_set.min)
    if k_set.max < r:
        pieces += _random_region_pieces(rng, k_set.max, r)
    for gc, gd in k_set.gaps():
        pieces += _random_region_pieces(rng, gc, gd)
    return StepFunction.from_pieces(r, pieces)


def random_f_selector(rng: np.random.Generator, rho: SpectralMeasure,
                      k_set: CompactSet) -> FSelector:
    """Random admissible f: constant values in [0, 1] on random off-K
    subregions, random weights on the atoms of rho."""
    r = rho.rep.bound
    intervals = []
    regions = [(-r, k_set.min), (k_set.max, r)] + list(k_set.gaps())
    for lo, hi in regions:
        if hi - lo <= 0.05 or rng.random() < 0.5:
            continue
        a = rng.uniform(lo, hi - 0.02)
        b = rng.uniform(a + 0.01, hi)
        intervals.append((a, b, float(rng.uniform(0.0, 1.0))))
    weights = tuple((pos, float(rng.uniform(0.0, 1.0)))
                    for pos, _ in rho.atoms if rng.random() < 0.7)
    return FSelector(tuple(intervals), weights)


# ---------------------------------------------------------------------------
# omega-limit approximation
# ---------------------------------------------------------------------------

def approximate_omega_limit(j: JacobiCoefficients, horizon: int, window: int,
                            threshold: float = 1e-6) -> list[dict]:
    """Finite-horizon approximation of the forward shift limit set: the
    windows of S^n J for n = 0..horizon, greedily clustered under the
    truncated coefficient metric.  Only an approximation: the true limit
    set needs n -> infinity."""
    if window < 1 or horizon < 0 or not threshold > 0:    # refuses NaN too
        raise ValueError("need window >= 1, horizon >= 0 and threshold > 0")
    if j.n_lo > 0 or horizon + window - 1 > j.n_hi:
        raise ValueError("horizon exceeds the explicitly available coefficients")
    a, b = j.arrays(0, horizon + window - 1)
    reps = np.empty(0, dtype=int)

    def distances(n: int) -> np.ndarray:
        # sum_i 2^-i (|a_{n+i} - a_{r+i}| + |b_{n+i} - b_{r+i}|) for every
        # representative r, added term by term in i as a scalar sum would
        d = np.zeros(len(reps))
        for i in range(window):
            d += 2.0 ** (-i) * (np.abs(a[n + i] - a[reps + i]) + np.abs(b[n + i] - b[reps + i]))
        return d

    clusters: list[dict] = []
    for n in range(horizon + 1):
        near = np.flatnonzero(distances(n) <= threshold)
        if near.size:
            clusters[near[0]]["members"].append(n)
        else:
            reps = np.append(reps, n)
            clusters.append({"representative": n, "members": [n],
                             "window_a": a[n:n + window].tolist(),
                             "window_b": b[n:n + window].tolist()})
    for cl in clusters:
        cl["distances"] = distances(cl["representative"]).tolist()
    return clusters


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _check(assertions: list, name: str, passed: bool, detail: str):
    assertions.append({"name": name, "passed": bool(passed), "detail": detail})


def _sample_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def run_lower_bound_suite(k_intervals=((-2.0, 2.0),), seed=7, samples=100,
                          n_coeffs=6, window=5) -> dict:
    """Random admissible (xi, f) over a single interval K = [B-2A, B+2A]:
    every a_0 reconstructed to depth n_coeffs must stay above A (up to 1e-6)."""
    k_set = CompactSet(k_intervals)
    if len(k_set.intervals) != 1:
        raise ValueError("the lower-bound suite needs a single-interval K")
    if n_coeffs < window:
        raise ValueError(f"n_coeffs must be at least {window}: "
                         "the deviation reads sites 1..window")
    c, d = k_set.intervals[0]
    a_const, b_const = (d - c) / 4.0, (c + d) / 2.0
    rows, assertions = [], []
    rngs = _sample_rngs(seed, samples)
    worst = math.inf
    for i, rng in enumerate(rngs):
        if i == 0:
            xi = canonical_krein_from_jumps(k_set, GapJumps(()))
            f = FSelector()
        else:
            xi = random_admissible_krein(rng, k_set)
            f = None
        try:
            rho = stieltjes_invert(HerglotzRep(xi))
            if f is None:
                f = random_f_selector(rng, rho, k_set)
            nu = half_line_measure(rho, k_set, f)
            rec = reconstruct_coefficients(nu, n_coeffs)
            a0 = rec.a(0)
            dev = max(abs(rec.a(0) - a_const),
                      coefficient_deviation(rec.restrict(1, n_coeffs), a_const,
                                            b_const, window))
            xi_dist = xi.l1_distance(flow_to_canonical(xi, k_set))
        except NumericError as exc:
            raise NumericError(
                f"sample {i} failed: {exc}; xi={json.dumps(xi.to_dict())} "
                f"f={json.dumps(f.to_dict() if f else None)}") from exc
        worst = min(worst, a0 - a_const)
        rows.append({"sample": i, "a0": a0, "margin": a0 - a_const,
                     "deviation": dev, "xi_l1_to_canonical": xi_dist})
    _check(assertions, "a0 >= A - 1e-6 for every sample", worst >= -1e-6,
           f"worst margin {worst:.3e}" + ("" if worst >= -1e-6 else
           f"; first failing sample {min(r['sample'] for r in rows if r['margin'] < -1e-6)}"))
    _check(assertions, "free sample recovers a0 = A, deviation 0",
           abs(rows[0]["a0"] - a_const) < 1e-8 and rows[0]["deviation"] < 1e-7,
           f"a0-A={rows[0]['a0'] - a_const:.3e} dev={rows[0]['deviation']:.3e}")
    plots = {"a0_margin": [(r["sample"], r["margin"]) for r in rows]}
    return _report(rows, assertions, plots, meta={"A": a_const, "B": b_const})


def _xi_mass_input(width: float) -> tuple[SpectralMeasure, FSelector]:
    xi = free_krein(4.0)
    if width > 0:
        xi = xi.with_value(2.0, 2.0 + width, 0.5)
    return stieltjes_invert(HerglotzRep(xi)), FSelector()


def _f_atom_input(mass: float) -> tuple[SpectralMeasure, FSelector]:
    if mass == 0.0:
        return stieltjes_invert(HerglotzRep(free_krein(4.0))), FSelector()
    s = mass / math.sqrt(5.0)  # unit piece (3, 3+s) carries residue sqrt(5)*s
    xi = free_krein(4.0).with_value(3.0, 3.0 + s, 1.0)
    return stieltjes_invert(HerglotzRep(xi)), FSelector(atom_weights=((3.0, 1.0),))


def run_perturbation_sweep(xi_widths=(0.4, 0.04, 0.004), f_masses=(0.3, 0.03, 0.003),
                           n_coeffs=30) -> dict:
    """One-parameter families shrinking toward the free input: deviations
    from the constant coefficients must decrease with the perturbation."""
    k_set = CompactSet(((-2.0, 2.0),))
    if n_coeffs < 12:
        raise ValueError("n_coeffs must be at least 12: the sweep reads deviation_L10")
    # on R = 4: the xi piece is (2, 2 + w) and the f-atom piece (3, 3 + m / sqrt(5))
    for key, sizes, lo, per in (("xi_widths", xi_widths, 2.0, 1.0),
                                ("f_masses", f_masses, 3.0, math.sqrt(5.0))):
        if not sizes or not all(0.0 < x < math.inf for x in sizes):    # 0 runs the free input
            raise ValueError(f"{key} needs one or more finite positive sizes")
        if max(sizes) > (4 - lo) * per:
            raise ValueError(f"{key} must be at most {(4 - lo) * per!r}, or its piece leaves [-4, 4]")
        if lo + min(sizes) / per == lo:
            raise ValueError(f"{key} holds {min(sizes)!r}, whose piece at {lo} is empty in float64")
    rows, assertions = [], []

    def measure_family(label, eps_list, builder):
        out = []
        for eps in (*eps_list, 0.0):
            rho, f = builder(eps)
            nu = half_line_measure(rho, k_set, f)
            rec = reconstruct_coefficients(nu, n_coeffs)
            row = {"family": label, "epsilon": eps, "a0": rec.a(0)}
            for el in (2, 5, 10):
                row[f"deviation_L{el}"] = coefficient_deviation(rec, 1.0, 0.0, el)
            out.append(row)
            rows.append(row)
        return out

    fam_xi = measure_family("xi-mass", xi_widths, _xi_mass_input)
    fam_f = measure_family("f-atom", f_masses, _f_atom_input)
    for label, fam in (("xi-mass", fam_xi), ("f-atom", fam_f)):
        devs = [r["deviation_L5"] for r in fam[:-1]]
        strict = all(d0 > d1 for d0, d1 in zip(devs, devs[1:]))
        _check(assertions, f"{label}: deviation(L=5) strictly decreasing", strict,
               f"deviations {devs}")
        a0s = [r["a0"] for r in fam[:-1]]
        _check(assertions, f"{label}: a0 decreasing toward 1",
               all(x0 > x1 for x0, x1 in zip(a0s, a0s[1:])) and a0s[-1] - 1.0 < 1e-2,
               f"a0 {a0s}")
        base = fam[-1]["deviation_L5"]
        _check(assertions, f"{label}: zero perturbation gives deviation < 1e-8",
               base < 1e-8, f"deviation {base:.3e}")
    plots = {"xi_mass_deviation": [(r["epsilon"], r["deviation_L5"]) for r in fam_xi],
             "f_atom_deviation": [(r["epsilon"], r["deviation_L5"]) for r in fam_f]}
    return _report(rows, assertions, plots)


def run_forward_asymptotics(atoms=((2.5, 0.3), (3.0, 0.3), (-2.7, 0.3)),
                            semicircle_scale=1.0, n_coeffs=30) -> dict:
    """Semicircle plus finitely many off-band atoms: reconstructed
    coefficients must trend to the free values along the half line."""
    for pos, _ in atoms:
        if -2.0 <= pos <= 2.0:
            raise ValueError(f"atom at {pos} is not off the band [-2, 2]")
    if n_coeffs < 30:
        raise ValueError("n_coeffs must be at least 30: the tail checks read site 30")
    rep = HerglotzRep(free_krein(2.0))
    nu = SpectralMeasure(rep, (AcPiece(-2.0, 2.0, 0.5 * semicircle_scale),), tuple(atoms))
    rec, meta = reconstruction_report(nu, n_coeffs)
    rows = [{"n": k, "a": rec.a(k), "b": rec.b(k)} for k in range(n_coeffs + 1)]
    dev = {k: abs(rec.a(k) - 1.0) + abs(rec.b(k)) for k in (5, 30)}
    assertions = []
    _check(assertions, "tail deviation drops: dev(30) < dev(5)",
           dev[30] < dev[5] + 1e-12, f"dev5={dev[5]:.3e} dev30={dev[30]:.3e}")
    min_a = min(rec.a(k) for k in range(10, n_coeffs + 1))
    _check(assertions, "min a_n over n >= 10 stays above 0.95",
           min_a >= 0.95, f"min a_n = {min_a:.6f}")
    _check(assertions, "dev(30) below the calibrated 0.05 threshold",
           dev[30] < 0.05, f"dev30={dev[30]:.3e}")
    plots = {"a_n": [(r["n"], r["a"]) for r in rows],
             "b_n": [(r["n"], r["b"]) for r in rows]}
    return _report(rows, assertions, plots, meta=meta)


def run_extremal_table(sets=(((-2.0, 2.0),), ((0.0, 4.0),), ((-2.0, -0.5), (0.5, 2.0)),
                             ((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0)),
                             tuple((float(i), i + 0.4) for i in range(6)))) -> dict:
    """Extremal constants for a list of sets, each with the KKT residual that
    certifies it and the observed closed form |K|/4."""
    if not sets:
        raise ValueError("sets needs one or more sets")
    rows, assertions = [], []
    for i, intervals in enumerate(sets):
        k_set = CompactSet(intervals)
        res = minimize_mass(k_set)
        row = {"set": json.dumps(k_set.intervals), "A": res.constant,
               "argmin": json.dumps(list(res.jumps.masses)),
               "refinement_tolerance": res.kkt_tolerance,
               "kkt_residual": res.kkt_residual, "iterations": res.iterations,
               "R_used": res.bound_used, "closed_form": k_set.total_length / 4.0}
        # checked at the 1e-12 relative accuracy of the returned quadrature value
        _check(assertions, f"set {i}: closed form |K|/4",
               abs(res.constant - row["closed_form"]) <= 1e-12 * row["closed_form"],
               f"A={res.constant!r}, observed identity |K|/4={row['closed_form']!r}")
        _check(assertions, f"set {i}: KKT residual within tolerance",
               res.kkt_residual <= res.kkt_tolerance, f"residual={res.kkt_residual:.3e}")
        _check(assertions, f"set {i}: A positive", res.constant > 0,
               f"A={res.constant!r}")
        rows.append(row)
    plots = {"A_by_set": [(i, r["A"]) for i, r in enumerate(rows)]}
    return _report(rows, assertions, plots)


def run_shift_clusters(operator=None, horizon=40, window=5,
                       cluster_threshold=1e-6) -> dict:
    """Cluster the shifted coefficient windows of a half-line operator, by
    default the period-2 one with a = 1 and b = 1, -1 (finite-horizon
    approximation of the forward limit set)."""
    if operator is None:
        j = JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0]) \
            .restrict(0, horizon + window)
    else:
        try:
            j = JacobiCoefficients.from_dict(operator)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad operator: {exc}") from exc
    clusters = approximate_omega_limit(j, horizon, window, cluster_threshold)
    rows = [{"cluster": i, "representative": cl["representative"],
             "size": len(cl["members"]),
             "window_a": json.dumps(cl["window_a"]),
             "window_b": json.dumps(cl["window_b"])}
            for i, cl in enumerate(clusters)]
    assertions = []
    _check(assertions, "clustering covers every shift",
           sum(r["size"] for r in rows) == horizon + 1,
           f"{sum(r['size'] for r in rows)} of {horizon + 1}")
    plots = {"cluster_sizes": [(r["cluster"], r["size"]) for r in rows]}
    return _report(rows, assertions, plots,
                   meta={"note": "finite-horizon approximation of the shift limit set",
                         "clusters": clusters})


def _checked(test, message: str):
    def parse(v):
        if not test(v):
            raise ValueError(message)
        return v
    return parse


def _number(v) -> float:
    """A JSON number as a float; a bool, a string or an integer beyond
    float64 is refused."""
    if type(v) in (int, float):
        try:
            return float(v)
        except OverflowError:
            pass
    raise ValueError("must be a float64 number")


def _pairs(v) -> tuple:
    return tuple((_number(c), _number(d)) for c, d in v)


_COUNT = _checked(lambda v: type(v) is int and v > 0, "must be a positive integer")
# the parser of a runner parameter, by name; one not named here is passed
# as read and checked by the runner, which checks every value's range.  The
# type tests refuse bools and strings.
_PARSE = {
    "seed": _checked(lambda v: type(v) is int, "must be an integer"),
    "samples": _COUNT, "n_coeffs": _COUNT, "window": _COUNT, "horizon": _COUNT,
    "cluster_threshold": _number,
    "k_intervals": _pairs, "atoms": _pairs, "sets": lambda v: tuple(map(_pairs, v)),
    **dict.fromkeys(("xi_widths", "f_masses"), lambda v: tuple(map(_number, v))),
    "semicircle_scale": _number,
}


def _resolve_config(runner, path: str | None, **overrides) -> dict:
    """The keyword arguments of `runner`, defaults included, from the JSON
    object at `path` (if any) and the `overrides` that are not None.  A key
    that `runner` does not declare, or a value of the wrong shape, is a
    ValueError."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("a config must be a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    signature = inspect.signature(runner)
    unknown = [k for k in data if k not in signature.parameters]
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))}; "
                         f"this run takes {', '.join(signature.parameters)}")
    params = {}
    for key, value in data.items():
        try:
            params[key] = _PARSE.get(key, lambda v: v)(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {key!r}: {exc}") from exc
    return {key: params.get(key, p.default) for key, p in signature.parameters.items()}


# ---------------------------------------------------------------------------
# report assembly and output
# ---------------------------------------------------------------------------

def _report(rows: list, assertions: list, plots: dict, meta: dict | None = None) -> dict:
    return {
        "meta": meta or {},
        "rows": rows,
        "assertions": assertions,
        "passed": all(a["passed"] for a in assertions),
        "plots": plots,
    }


def _csv_text(rows: list[dict], cols=None) -> str:
    """A header line, then one line per row; the header of `cols` (default:
    the first row's keys) alone when there are no rows."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, cols or (list(rows[0]) if rows else []), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_report(report: dict, out_dir: str) -> list[str]:
    """Write report.json (the report without its plots), rows.csv, and one
    x,y CSV per plot; returns the paths written."""
    files = {"report.json": json.dumps({k: v for k, v in report.items() if k != "plots"},
                                       indent=2, sort_keys=True, default=float) + "\n",
             "rows.csv": _csv_text(report["rows"])}
    for name, pairs in report["plots"].items():
        files[f"plot_{name}.csv"] = _csv_text(
            [{"x": float(x), "y": float(y)} for x, y in pairs], ("x", "y"))
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in files.items():
        written.append(os.path.join(out_dir, name))
        with open(written[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    return written

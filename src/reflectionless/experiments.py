"""Reproducible experiment runners behind the CLI.

Each runner consumes an ExperimentConfig, produces a report dict (config
echo, per-row data, named assertions), and never depends on anything but
the seed, so identical configs give byte-identical outputs.  Samples are
generated from per-index child seeds; a failing assertion names the sample
index so a run can be replayed.

All underlying operations are pure functions of immutable values, so
samples could evaluate in parallel; the runners here evaluate them
sequentially in index order to keep reduction order fixed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, NumericError
from .extremal import grid_min_mass, minimize_mass
from .gapflow import GapJumps, canonical_krein_from_jumps, flow_to_canonical
from .inverse import (coefficient_deviation, reconstruct_coefficients,
                      reconstruction_report)
from .krein import HerglotzRep, StepFunction, free_krein
from .measures import FSelector, SpectralMeasure, AcPiece, half_line_measure, \
    stieltjes_invert, total_mass
from .operators import JacobiCoefficients
from .sets import CompactSet

__all__ = [
    "ExperimentConfig",
    "random_compact_set",
    "random_admissible_krein",
    "random_f_selector",
    "approximate_omega_limit",
    "run_lower_bound_suite",
    "run_perturbation_sweep",
    "run_forward_asymptotics",
    "run_extremal_table",
    "run_shift_clusters",
    "run_eval",
    "write_report",
]


@dataclass
class ExperimentConfig:
    name: str
    k_intervals: list = field(default_factory=lambda: [[-2.0, 2.0]])
    seed: int = 7
    samples: int = 100
    grid: int = 51
    n_coeffs: int = 30
    window: int = 5
    horizon: int = 40
    cluster_threshold: float = 1e-6
    out_dir: str = "out"
    fmt: str = "csv"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if type(self.seed) is not int:      # refuses floats and bools
            raise ConfigError("seed must be an integer")
        for name in ("samples", "grid", "n_coeffs", "window", "horizon"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ConfigError(f"{name} must be a positive integer")
        if not self.cluster_threshold > 0:          # refuses NaN too
            raise ConfigError("cluster_threshold must be positive")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")

    def k_set(self) -> CompactSet:
        try:
            return CompactSet(tuple((c, d) for c, d in self.k_intervals))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad K intervals: {exc}") from exc

    @classmethod
    def from_json(cls, name: str, path: str | None, **overrides) -> "ExperimentConfig":
        data = {}
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("extra", {}), dict):
            raise ConfigError("a config and its extra must be JSON objects")
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = {f for f in cls.__dataclass_fields__}
        extra = data.pop("extra", {})
        unknown = {k: v for k, v in data.items() if k not in known}
        extra.update(unknown)
        kwargs = {k: v for k, v in data.items() if k in known and k != "name"}
        try:
            return cls(name=name, extra=extra, **kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# random admissible inputs
# ---------------------------------------------------------------------------

def random_compact_set(rng: np.random.Generator, max_gaps: int = 3,
                       min_band: float = 0.4, min_gap: float = 0.25) -> CompactSet:
    n_bands = int(rng.integers(2, max_gaps + 2))
    while True:
        pts = np.sort(rng.uniform(-4.0, 4.0, 2 * n_bands))
        bands = [(pts[2 * i], pts[2 * i + 1]) for i in range(n_bands)]
        if any(d - c < min_band for c, d in bands):
            continue
        if any(bands[i + 1][0] - bands[i][1] < min_gap for i in range(n_bands - 1)):
            continue
        return CompactSet(tuple(bands))


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


def _extra(cfg: ExperimentConfig, key: str, default, parse):
    """parse(cfg.extra.get(key, default)); a wrong shape is a ConfigError."""
    try:
        return parse(cfg.extra.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad extra {key!r}: {exc}") from exc


def _sample_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def run_lower_bound_suite(cfg: ExperimentConfig) -> dict:
    """Random admissible (xi, f) over a single interval K = [B-2A, B+2A]:
    every reconstructed a_0 must stay above A (up to 1e-6)."""
    k_set = cfg.k_set()
    if len(k_set.intervals) != 1:
        raise ConfigError("the lower-bound suite needs a single-interval K")
    c, d = k_set.intervals[0]
    a_const, b_const = (d - c) / 4.0, (c + d) / 2.0
    rows, assertions = [], []
    n_rec = min(cfg.n_coeffs, 6)
    rngs = _sample_rngs(cfg.seed, cfg.samples)
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
            rec = reconstruct_coefficients(nu, n_rec)
            a0 = rec.a(0)
            dev = max(abs(rec.a(0) - a_const),
                      coefficient_deviation(rec.restrict(1, n_rec), a_const,
                                            b_const, cfg.window))
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
    return _report(cfg, rows, assertions, plots,
                   meta={"A": a_const, "B": b_const})


def _xi_mass_input(width: float) -> SpectralMeasure:
    xi = free_krein(4.0)
    if width > 0:
        xi = xi.with_value(2.0, 2.0 + width, 0.5)
    return stieltjes_invert(HerglotzRep(xi))


def _f_atom_input(mass: float) -> tuple[SpectralMeasure, FSelector]:
    if mass == 0.0:
        return stieltjes_invert(HerglotzRep(free_krein(4.0))), FSelector()
    s = mass / math.sqrt(5.0)  # unit piece (3, 3+s) carries residue sqrt(5)*s
    xi = free_krein(4.0).with_value(3.0, 3.0 + s, 1.0)
    return stieltjes_invert(HerglotzRep(xi)), FSelector(atom_weights=((3.0, 1.0),))


def run_perturbation_sweep(cfg: ExperimentConfig) -> dict:
    """One-parameter families shrinking toward the free input: deviations
    from the constant coefficients must decrease with the perturbation."""
    k_set = CompactSet(((-2.0, 2.0),))
    xi_widths = _extra(cfg, "xi_widths", [0.4, 0.04, 0.004], lambda v: list(map(float, v)))
    f_masses = _extra(cfg, "f_masses", [0.3, 0.03, 0.003], lambda v: list(map(float, v)))
    for key, sizes in (("xi_widths", xi_widths), ("f_masses", f_masses)):
        if not sizes or not all(0.0 < x < math.inf for x in sizes):    # 0 runs the free input
            raise ConfigError(f"{key} needs one or more finite positive sizes")
    n_rec = max(cfg.n_coeffs, 12)
    rows, assertions = [], []

    def measure_family(label, eps_list, builder):
        out = []
        for eps in eps_list + [0.0]:
            nu_f = builder(eps)
            rho, f = nu_f if isinstance(nu_f, tuple) else (nu_f, FSelector())
            nu = half_line_measure(rho, k_set, f)
            rec = reconstruct_coefficients(nu, n_rec)
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
    return _report(cfg, rows, assertions, plots)


def run_forward_asymptotics(cfg: ExperimentConfig) -> dict:
    """Semicircle plus finitely many off-band atoms: reconstructed
    coefficients must trend to the free values along the half line."""
    atoms = _extra(cfg, "atoms", [[2.5, 0.3], [3.0, 0.3], [-2.7, 0.3]],
                   lambda v: tuple((float(p), float(m)) for p, m in v))
    scale = _extra(cfg, "semicircle_scale", 1.0, float)
    for pos, _ in atoms:
        if -2.0 <= pos <= 2.0:
            raise ConfigError(f"atom at {pos} is not off the band [-2, 2]")
    rep = HerglotzRep(free_krein(2.0))
    nu = SpectralMeasure(rep, (AcPiece(-2.0, 2.0, 0.5 * scale),), atoms)
    n = max(cfg.n_coeffs, 30)
    rec = reconstruct_coefficients(nu, n)
    rows = [{"n": k, "a": rec.a(k), "b": rec.b(k)} for k in range(n + 1)]
    dev = {k: abs(rec.a(k) - 1.0) + abs(rec.b(k)) for k in (5, 30)}
    assertions = []
    _check(assertions, "tail deviation drops: dev(30) < dev(5)",
           dev[30] < dev[5] + 1e-12, f"dev5={dev[5]:.3e} dev30={dev[30]:.3e}")
    min_a = min(rec.a(k) for k in range(10, n + 1))
    _check(assertions, "min a_n over n >= 10 stays above 0.95",
           min_a >= 0.95, f"min a_n = {min_a:.6f}")
    _check(assertions, "dev(30) below the calibrated 0.05 threshold",
           dev[30] < 0.05, f"dev30={dev[30]:.3e}")
    plots = {"a_n": [(r["n"], r["a"]) for r in rows],
             "b_n": [(r["n"], r["b"]) for r in rows]}
    meta = reconstruction_report(nu, rec)
    meta["atoms"] = [list(t) for t in atoms]
    return _report(cfg, rows, assertions, plots, meta=meta)


def run_extremal_table(cfg: ExperimentConfig) -> dict:
    """Extremal constants for a list of sets, with the grid oracle delta and
    the observed closed form |K|/4."""
    sets = _extra(cfg, "sets", None,
                  lambda v: [[[float(c), float(d)] for c, d in s] for s in v or ()]) or [
        [[-2.0, 2.0]], [[0.0, 4.0]],
        [[-2.0, -0.5], [0.5, 2.0]],
        [[-3.0, -1.5], [-0.5, 1.0], [2.0, 3.0]],
    ]
    rows, assertions = [], []
    for i, intervals in enumerate(sets):
        k_set = CompactSet(tuple((c, d) for c, d in intervals))
        res = minimize_mass(k_set)
        oracle = grid_min_mass(k_set, grid=cfg.grid)
        delta = abs(res.objective_value - oracle.objective_value)
        row = {"set": json.dumps(intervals), "A": res.constant,
               "argmin": json.dumps(list(res.jumps.masses)),
               "grid": cfg.grid, "refinement_tolerance": res.kkt_tolerance,
               "kkt_residual": res.kkt_residual, "iterations": res.iterations,
               "R_used": res.bound_used, "delta_vs_grid": delta,
               "closed_form": k_set.total_length / 4.0}
        # checked at the 1e-12 relative accuracy of the returned quadrature value
        _check(assertions, f"set {i}: closed form |K|/4",
               abs(res.constant - row["closed_form"]) <= 1e-12 * row["closed_form"],
               f"A={res.constant!r}, observed identity |K|/4={row['closed_form']!r}")
        # one-sided: the grid only bounds the constant from above, and how
        # far above depends on the grid, not on the solver
        _check(assertions, f"set {i}: no worse than the grid oracle",
               res.objective_value <= oracle.objective_value * (1 + 1e-9),
               f"delta={delta:.3e}")
        _check(assertions, f"set {i}: KKT residual within tolerance",
               res.kkt_residual <= res.kkt_tolerance, f"residual={res.kkt_residual:.3e}")
        _check(assertions, f"set {i}: A positive", res.constant > 0,
               f"A={res.constant!r}")
        rows.append(row)
    plots = {"A_by_set": [(i, r["A"]) for i, r in enumerate(rows)]}
    return _report(cfg, rows, assertions, plots)


def run_shift_clusters(cfg: ExperimentConfig) -> dict:
    """Cluster the shifted coefficient windows of a half-line operator
    (finite-horizon approximation of the forward limit set)."""
    op = cfg.extra.get("operator")
    if op is None:
        j = JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0]) \
            .restrict(0, cfg.horizon + cfg.window)
    else:
        try:
            j = JacobiCoefficients.from_dict(op)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad operator: {exc}") from exc
    try:
        clusters = approximate_omega_limit(j, cfg.horizon, cfg.window,
                                           cfg.cluster_threshold)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [{"cluster": i, "representative": cl["representative"],
             "size": len(cl["members"]),
             "window_a": json.dumps(cl["window_a"]),
             "window_b": json.dumps(cl["window_b"])}
            for i, cl in enumerate(clusters)]
    assertions = []
    _check(assertions, "clustering covers every shift",
           sum(r["size"] for r in rows) == cfg.horizon + 1,
           f"{sum(r['size'] for r in rows)} of {cfg.horizon + 1}")
    plots = {"cluster_sizes": [(r["cluster"], r["size"]) for r in rows]}
    return _report(cfg, rows, assertions, plots,
                   meta={"note": "finite-horizon approximation of the shift limit set",
                         "clusters": clusters})


def run_eval(cfg: ExperimentConfig) -> dict:
    """Ad-hoc evaluation of H, xi, T xi, or measure data from a config."""
    what = cfg.extra.get("what", "herglotz")
    xi_data = cfg.extra.get("xi")
    if xi_data is None:
        raise ConfigError("eval needs an 'xi' step function in the config")
    try:
        xi = StepFunction.from_dict(xi_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad xi: {exc}") from exc
    rep = HerglotzRep(xi)

    def points(parse) -> list:
        return _extra(cfg, "points", [], lambda v: [parse(p) for p in v])

    rows = []
    from . import krein
    if what == "herglotz":
        for z in points(lambda p: complex(*p) if isinstance(p, list) else complex(p)):
            h = krein.herglotz_eval(rep, z)
            rows.append({"re_z": z.real, "im_z": z.imag, "re_H": h.real, "im_H": h.imag})
    elif what == "boundary":
        for x in points(float):
            h = krein.boundary_value(rep, x)
            rows.append({"x": x, "re_H": h.real, "im_H": h.imag,
                         "abs_H": abs(h)})
    elif what == "hilbert":
        for x in points(float):
            rows.append({"x": x, "T_xi": krein.hilbert_transform(xi, x)})
    elif what == "xi":
        for x in points(float):
            rows.append({"x": x, "xi": xi.value_at(x)})
    elif what == "measure":
        rho = stieltjes_invert(rep)
        rows.append({"total_mass": total_mass(rho),
                     "n_ac_pieces": len(rho.ac_pieces),
                     "atoms": json.dumps([list(t) for t in rho.atoms])})
    else:
        raise ConfigError(f"unknown eval kind {what!r}")
    return _report(cfg, rows, [], {})


# ---------------------------------------------------------------------------
# report assembly and output
# ---------------------------------------------------------------------------

def _report(cfg: ExperimentConfig, rows: list, assertions: list,
            plots: dict, meta: dict | None = None) -> dict:
    echo = asdict(cfg)
    echo.pop("out_dir", None)  # identical config+seed => identical bytes
    echo.pop("fmt", None)      # regardless of where the report lands
    return {
        "experiment": cfg.name,
        "config": echo,
        "meta": meta or {},
        "rows": rows,
        "assertions": assertions,
        "passed": all(a["passed"] for a in assertions),
        "plots": plots,
    }


def _csv_text(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt(r.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str) and ("," in v or '"' in v):
        return '"' + v.replace('"', '""') + '"'
    return str(v)


def write_report(report: dict, out_dir: str, fmt: str = "csv") -> list[str]:
    """Write report.json, the row table, and one two-column CSV per plot;
    returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    plots = report.pop("plots", {})
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    written.append(path)
    rows = report.get("rows", [])
    if fmt == "csv":
        path = os.path.join(out_dir, "rows.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(rows))
    else:
        path = os.path.join(out_dir, "rows.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, default=float)
            fh.write("\n")
    written.append(path)
    for name, pairs in plots.items():
        path = os.path.join(out_dir, f"plot_{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            for x, y in pairs:
                fh.write(f"{_fmt(float(x))},{_fmt(float(y))}\n")
        written.append(path)
    report["plots"] = plots
    return written

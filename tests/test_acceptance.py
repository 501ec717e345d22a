"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margin and runtime.  Tolerances are fixed here, not tuned at
runtime."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from reflectionless import (CompactSet, GapJumps, HerglotzRep,
                            JacobiCoefficients, SpectralMeasure, StepFunction,
                            abs_boundary, coefficient_deviation, free_krein,
                            flow_steps, grid_min_mass, half_line_measure,
                            herglotz_eval, hilbert_transform, minimize_mass,
                            operators, reconstruct_coefficients, reflectionless_residual,
                            stieltjes_invert, total_mass)
from reflectionless.experiments import (_f_atom_input, _xi_mass_input,
                                        random_admissible_krein,
                                        random_compact_set, random_f_selector)

from conftest import interior_points, periodic_bands, random_step

BAND = CompactSet(((-2.0, 2.0),))


def _stamp(num, name, detail, t0, limit=None):
    dt = time.perf_counter() - t0
    if limit is not None:
        assert dt < limit, f"criterion {num} runtime {dt:.2f}s over {limit}s"
    print(f"[ACCEPTANCE {num}] {name}: PASS ({detail}; {dt:.2f}s)")


def test_criterion_01_free_function_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    z = rng.uniform(-5.0, 5.0, 100) + 1j * 10.0 ** rng.uniform(-2.0, 1.0, 100)
    h = herglotz_eval(HerglotzRep(free_krein(2.0)), z)
    ref = z * np.sqrt(1.0 - 4.0 / z**2)  # sqrt(z^2-4), upper-half branch
    err = float(np.max(np.abs(h - ref) / np.abs(ref)))
    assert err < 1e-10
    _stamp(1, "free-function identity", f"max rel err {err:.2e}", t0, limit=1.0)


def test_criterion_02_modulus_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        xi = random_step(rng, max_pieces=5, min_width=0.25)
        rep = HerglotzRep(xi)
        xs = interior_points(xi, rng, 100, margin_frac=0.1)
        closed = abs_boundary(rep, xs)  # (x+R) e^{T xi(x)}
        eta = 1e-4
        v1 = np.abs(herglotz_eval(rep, xs + 1j * eta))
        v2 = np.abs(herglotz_eval(rep, xs + 0.5j * eta))
        v3 = np.abs(herglotz_eval(rep, xs + 0.25j * eta))
        extrap = (8.0 * v3 - 6.0 * v2 + v1) / 3.0
        worst = max(worst, float(np.max(np.abs(extrap - closed)
                                        / np.maximum(1.0, closed))))
    assert worst < 1e-6
    _stamp(2, "boundary modulus identity", f"max err {worst:.2e}", t0, limit=10.0)


def test_criterion_03_gap_flow_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_rise = -math.inf
    strict_checked = 0
    for _ in range(200):
        k_set = random_compact_set(rng)
        xi = random_admissible_krein(rng, k_set)
        pts = k_set.interior_grid(50)
        prev = xi
        for _, cur in flow_steps(xi, k_set):
            drop = hilbert_transform(prev, pts) - hilbert_transform(cur, pts)
            worst_rise = max(worst_rise, float(-np.min(drop)))
            assert np.min(drop) >= -1e-12
            if prev.l1_distance(cur) > 1e-6:
                strict_checked += 1
                assert np.min(drop) > 0.0
            prev = cur
    assert strict_checked > 100
    _stamp(3, "gap-flow monotonicity",
           f"200 inputs, {strict_checked} strict steps, worst rise {worst_rise:.1e}",
           t0, limit=30.0)


def test_criterion_04_coupling_lower_bound_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = math.inf
    for _ in range(100):
        xi = random_admissible_krein(rng, BAND)
        rho = stieltjes_invert(HerglotzRep(xi))
        f = random_f_selector(rng, rho, BAND)
        nu = half_line_measure(rho, BAND, f)
        rec = reconstruct_coefficients(nu, 3)
        worst = min(worst, rec.a(0) - 1.0)
        assert rec.a(0) >= 1.0 - 1e-6
    _stamp(4, "coupling lower bound (100 random admissible inputs)",
           f"worst margin {worst:.2e}", t0, limit=120.0)


def test_criterion_05_shrinking_perturbation_trend():
    t0 = time.perf_counter()

    def run(builder, eps):
        built = builder(eps)
        rho, f = built if isinstance(built, tuple) else (built, None)
        nu = half_line_measure(rho, BAND, f)
        rec = reconstruct_coefficients(nu, 12)
        return rec.a(0), coefficient_deviation(rec, 1.0, 0.0, 5)

    for label, builder, eps_list in (
            ("xi-mass", _xi_mass_input, (0.4, 0.04, 0.004)),
            ("f-atom", _f_atom_input, (0.3, 0.03, 0.003))):
        a0s, devs = zip(*(run(builder, e) for e in eps_list))
        assert all(d0 > d1 for d0, d1 in zip(devs, devs[1:])), (label, devs)
        assert all(x0 > x1 for x0, x1 in zip(a0s, a0s[1:])), (label, a0s)
        assert a0s[-1] - 1.0 < 2e-3
        _, dev0 = run(builder, 0.0)
        assert dev0 < 1e-8
    _stamp(5, "shrinking perturbations",
           "both families strictly decreasing, zero case < 1e-8", t0)


def test_criterion_06_extremal_constant_closed_cases():
    t0 = time.perf_counter()
    res = minimize_mass(CompactSet(((-2.0, 2.0),)))
    assert abs(res.constant - 1.0) <= 1e-8
    errs = [abs(res.constant - 1.0)]
    for a_ref, b_ref in ((0.5, 3.0), (2.0, -1.0)):
        k = CompactSet(((b_ref - 2.0 * a_ref, b_ref + 2.0 * a_ref),))
        got = minimize_mass(k).constant
        errs.append(abs(got - a_ref))
        assert abs(got - a_ref) <= 1e-8
    _stamp(6, "extremal constant closed cases", f"max err {max(errs):.2e}", t0)


def test_criterion_07_minimizer_vs_grid_oracle():
    t0 = time.perf_counter()
    deltas = []
    k1 = CompactSet(((-2.0, -0.5), (0.5, 2.0)))
    rng = np.random.default_rng(7)
    k2 = random_compact_set(rng, max_gaps=2, min_band=0.5, min_gap=0.4)
    while len(k2.gaps()) != 2:
        k2 = random_compact_set(rng, max_gaps=2, min_band=0.5, min_gap=0.4)
    for k_set in (k1, k2):
        refined = minimize_mass(k_set)
        oracle = grid_min_mass(k_set, grid=401)
        delta = abs(refined.constant - oracle.constant)
        deltas.append(delta)
        assert delta < 1e-4
    _stamp(7, "minimizer vs exhaustive grid",
           f"deltas {deltas[0]:.2e}, {deltas[1]:.2e}", t0, limit=120.0)


def test_criterion_08_reconstruction_roundtrip():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        diag = rng.uniform(-1.0, 1.0, 20)
        off = rng.uniform(0.25, 2.0, 19)
        coupling = float(rng.uniform(0.5, 2.0))
        # MRRR keeps first eigenvector components as small as 1e-10 (weights
        # ~1e-19) to full relative accuracy; QR (stev) does not, and the deep
        # coefficients depend on those weights relatively
        lam, vec = eigh_tridiagonal(diag, off, lapack_driver="stemr")
        nu = SpectralMeasure(None, (), tuple(
            (float(l), float(coupling**2 * w))
            for l, w in zip(lam, vec[0, :] ** 2)))
        rec = reconstruct_coefficients(nu, 19)
        errs = [abs(rec.a(0) - coupling)]
        errs += [abs(rec.a(n) - off[n - 1]) for n in range(1, 20)]
        errs += [abs(rec.b(n) - diag[n - 1]) for n in range(1, 20)]
        worst = max(worst, max(errs))
        assert max(errs) < 1e-8
    _stamp(8, "reconstruction roundtrip (25 seeds)", f"worst err {worst:.2e}", t0)


def test_criterion_09_forward_coefficient_trend():
    t0 = time.perf_counter()
    rho = stieltjes_invert(HerglotzRep(free_krein(2.0)))
    nu0 = half_line_measure(rho, BAND)
    nu = SpectralMeasure(nu0.rep, nu0.ac_pieces,
                         ((2.5, 0.3), (3.0, 0.3), (-2.7, 0.3)))
    rec = reconstruct_coefficients(nu, 30)
    dev5 = abs(rec.a(5) - 1.0) + abs(rec.b(5))
    dev30 = abs(rec.a(30) - 1.0) + abs(rec.b(30))
    assert dev30 < dev5
    assert dev30 < 0.05
    _stamp(9, "forward coefficient trend",
           f"dev5 {dev5:.2e}, dev30 {dev30:.2e}", t0)


def test_criterion_10_reflectionless_residuals():
    t0 = time.perf_counter()
    ratios = []
    for a, b in (([1.0], [0.0]), ([1.0, 1.0], [1.0, -1.0]), ([0.8, 1.3, 1.1], [0.5, -0.7, 0.2])):
        # on the bands of a periodic operator g_n(t + i0) is purely imaginary
        j = JacobiCoefficients.periodic(a, b).restrict(-3, 7)
        bands = CompactSet(periodic_bands(a, b, inset=0.01))
        g = operators._green_sites(j, -2, 2, bands.interior_grid(100) + 0j)
        ratios.append(reflectionless_residual(j, bands, grid=100) / np.abs(g).max())
    assert max(ratios) <= 1e-12
    # off the band, Re g_n(t + i0) = -1/sqrt(t^2 - 4) at every site of the free operator
    off = CompactSet(((3.0, 4.0),))
    t = off.interior_grid(100)
    expected = float(np.max(1.0 / np.sqrt(t * t - 4.0)))
    r_neg = reflectionless_residual(JacobiCoefficients.periodic([1.0], [0.0]), off, grid=100)
    assert abs(r_neg - expected) <= 1e-12 * expected
    _stamp(10, "reflectionless residuals",
           "free / two- / three-periodic residual over max|g| "
           + " / ".join(f"{r:.1e}" for r in ratios) + f", control {r_neg:.6f}", t0)

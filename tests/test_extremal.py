import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from reflectionless import (CompactSet, GapJumps, HerglotzRep, NumericError,
                            canonical_krein_from_jumps,
                            extremal, flow_to_canonical,
                            gap_jump_masses, grid_min_mass, half_line_measure,
                            mass_objective, minimize_mass, stieltjes_invert,
                            total_mass)
from reflectionless.experiments import random_admissible_krein

from conftest import (SIX_BANDS, abs_boundary, flow_steps, is_canonical, mp_mass_objective,
                      mp_stationary_point, random_compact_set)

SYMMETRIC_TWO_BAND = CompactSet(((-2.0, -0.5), (0.5, 2.0)))
# gaps 1.2e-6, 6.0e-5 and 0.74 wide between bands 7.5e-3 to 1.3 wide: the deep
# reconstruction path refuses its canonical measure (ROADMAP item 24)
NARROW_GAP_BANDS = ((-1.0, 0.26105064861082283),
                    (0.2610518697885442, 0.2685957069459264),
                    (0.268655887810473, 0.5121868779402663),
                    (1.2496210642986805, 2.0852518717194757))

# centered jump on the symmetric two-band set: |H(x)| =
# sqrt((4-x^2)(x^2-1/4))/|x| on the bands, giving mass 9/16 and the
# alternating period-two minimum 3/4 (off-diagonals 5/4, 3/4)
SYMMETRIC_OBJECTIVE_AT_HALF = 0.5625
SYMMETRIC_CONSTANT = 0.75


# sets whose scale takes the mass objective out of float64's normal range, and sets at
# the edge of that range inside it
OUT_OF_RANGE = {
    "subnormal-f": ((0.0, 1e-160),), "underflow-f": ((0.0, 1e-300),),
    "overflow-f": ((0.0, 1e200),),
    "overflow-atom-products": ((0.0, 1e100), (2e100, 3e100), (4e100, 5e100), (6e100, 7e100)),
}
FOUR_BANDS = ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0))
IN_RANGE = (((0.0, 1e-153),), ((0.0, 1e153),), tuple((1e70 * c, 1e70 * d) for c, d in FOUR_BANDS),
            tuple((1e-70 * c, 1e-70 * d) for c, d in FOUR_BANDS))


class TestObjective:
    def test_bandwidth_four_interval_gives_one(self):
        k = CompactSet(((-2.0, 2.0),))
        assert mass_objective(k, GapJumps(())) == \
            pytest.approx(1.0, abs=1e-11)

    def test_interval_value_is_quarter_width_squared(self):
        for a_ref, b_ref in ((0.5, 3.0), (2.0, -1.0)):
            k = CompactSet(((b_ref - 2 * a_ref, b_ref + 2 * a_ref),))
            assert mass_objective(k, GapJumps(())) == \
                pytest.approx(a_ref**2, rel=1e-11, abs=0)

    def test_symmetric_two_band_centered_jump(self):
        val = mass_objective(SYMMETRIC_TWO_BAND, GapJumps((0.5,)))
        assert val == pytest.approx(SYMMETRIC_OBJECTIVE_AT_HALF, abs=1e-11)
        # independent oracle: |H| in closed form, scipy quadrature
        oracle = 2.0 * quad(
            lambda x: math.sqrt((4.0 - x * x) * (x * x - 0.25)) / x,
            0.5, 2.0, limit=200)[0] / (2.0 * math.pi)
        assert val == pytest.approx(oracle, abs=1e-9)

    def test_matches_half_line_mass_of_the_canonical_measure(self):
        jumps = GapJumps((0.3,))
        xi = canonical_krein_from_jumps(SYMMETRIC_TWO_BAND, jumps)
        nu = half_line_measure(stieltjes_invert(HerglotzRep(xi)), SYMMETRIC_TWO_BAND)
        assert mass_objective(SYMMETRIC_TWO_BAND, jumps) == \
            pytest.approx(total_mass(nu), rel=1e-11, abs=0)

    def test_bound_independence(self):
        def band_mass(jumps, bound):
            # half the band mass of the canonical measure on [-R, R], as in mass_objective
            xi = canonical_krein_from_jumps(SYMMETRIC_TWO_BAND, jumps, bound)
            assert xi.bound == bound
            rho = stieltjes_invert(HerglotzRep(xi))
            return 0.5 * total_mass(type(rho)(rho.rep, rho.ac_pieces, ()))

        for jumps in (GapJumps((0.0,)), GapJumps((0.37,)), GapJumps((1.0,))):
            v1 = band_mass(jumps, 2.5)
            v2 = band_mass(jumps, 4.0)
            assert abs(v1 - v2) < 1e-9

    @pytest.mark.parametrize("bands", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
    def test_scale_outside_the_normal_range_refused_as_the_minimizer_refuses(self, bands):
        # at [0, 1e-160] the quadrature sums subnormal terms to 2% below (|K|/4)^2, and at
        # [0, 1e200] f overflows
        k = CompactSet(bands)
        with pytest.raises(ValueError) as refused:
            minimize_mass(k)
        with pytest.raises(ValueError) as err:
            mass_objective(k, GapJumps(tuple(0.5 * (d - c) for c, d in k.gaps())))
        assert str(err.value) == str(refused.value) and "float64's normal range" in str(err.value)

    @pytest.mark.parametrize("bands", IN_RANGE, ids=["1e-153", "1e153", "4-bands-1e70",
                                                     "4-bands-1e-70"])
    def test_scales_inside_the_normal_range_evaluate_at_any_jumps(self, bands):
        # the box's faces, its centre and a corner, against the closed form
        k = CompactSet(bands)
        widths = np.array([d - c for c, d in k.gaps()])
        for y in ([0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5] * 3, [1e-3, 0.999, 1.0]):
            g = tuple(np.array(y[:len(widths)]) * widths)
            ref = extremal._FastObjective(k).value(g)
            assert mass_objective(k, GapJumps(g)) == pytest.approx(ref, rel=1e-11, abs=0)

    def test_jump_bounds_validated(self):
        with pytest.raises(ValueError):
            mass_objective(SYMMETRIC_TWO_BAND, GapJumps((1.5,)))
        with pytest.raises(ValueError):
            mass_objective(SYMMETRIC_TWO_BAND, GapJumps((0.2, 0.2)))


class TestMinimize:
    def test_no_gap_interval_minimum(self):
        res = minimize_mass(CompactSet(((-2.0, 2.0),)))
        assert res.constant == pytest.approx(1.0, abs=1e-8)
        assert res.jumps.masses == ()

    def test_affine_intervals(self):
        for a_ref, b_ref in ((0.5, 3.0), (2.0, -1.0)):
            k = CompactSet(((b_ref - 2 * a_ref, b_ref + 2 * a_ref),))
            assert minimize_mass(k).constant == pytest.approx(a_ref, abs=1e-8)

    def test_symmetric_interval_sweep(self):
        for a_ref in (0.5, 1.0, 2.0):
            k = CompactSet(((-2.0 * a_ref, 2.0 * a_ref),))
            assert minimize_mass(k).constant == pytest.approx(a_ref, abs=1e-8)

    def test_symmetric_two_band_hits_the_alternating_minimum(self):
        res = minimize_mass(SYMMETRIC_TWO_BAND)
        assert res.constant == pytest.approx(SYMMETRIC_CONSTANT, abs=1e-8)
        assert res.jumps.masses[0] == pytest.approx(0.5, abs=1e-6)

    def test_many_gaps_solve_with_certificate(self):
        bands_rng = np.random.default_rng(5)
        for gaps in (5, 6, 8):
            widths = bands_rng.uniform(0.3, 1.2, gaps + 1)
            spaces = bands_rng.uniform(0.2, 0.8, gaps)
            starts = np.concatenate([[0.0], np.cumsum(widths[:-1] + spaces)])
            k = CompactSet(tuple(zip(starts.tolist(), (starts + widths).tolist())))
            res = minimize_mass(k)
            assert len(res.jumps.masses) == gaps
            assert res.kkt_residual <= 1e-10
            assert res.constant <= grid_min_mass(k, grid=5).constant

    def test_constant_is_a_quarter_of_the_set_length(self, rng):
        # A(K) = |K|/4: exact for an interval and for the symmetric two-band
        # set (3/4); observed to 2e-12 on 900 random sets with 1-10 gaps, to
        # 7e-16 on 200 sets with gaps 1e-6 to 1e-4 wide between bands 1 to 10
        # wide, and to 1.1e-12 on extreme_sets(17, 200)
        sets = [CompactSet(tuple((float(i), float(i) + 0.4) for i in range(6)))]
        sets += [random_compact_set(rng, max_gaps=4) for _ in range(6)]
        for k in sets:
            assert minimize_mass(k).constant == \
                pytest.approx(k.total_length / 4.0, rel=1e-12, abs=0)

    def test_non_convergence_raises(self, monkeypatch):
        # a root finder that stops short of the roots: the box centre
        monkeypatch.setattr(extremal, "_jump_roots", lambda fast: (0.5 * fast.gap_widths, 1))
        with pytest.raises(NumericError, match="KKT residual .* above its tolerance"):
            minimize_mass(CompactSet(((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0))))

    def test_iterations_and_residual_reported(self):
        # the box centre solves the symmetric set exactly: no root-finder step
        assert minimize_mass(SYMMETRIC_TWO_BAND).iterations == 0
        res = minimize_mass(CompactSet(((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0))))
        assert 0 < res.iterations < 20
        assert res.kkt_residual <= extremal.KKT_TOL
        assert extremal.KKT_TOL <= res.kkt_tolerance <= 1.001 * extremal.KKT_TOL
        assert grid_min_mass(SYMMETRIC_TWO_BAND, grid=11).kkt_residual is None

    def test_positivity(self, rng):
        for _ in range(5):
            k = random_compact_set(rng)
            assert minimize_mass(k).constant > 0.0

    @pytest.mark.parametrize("bands", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
    def test_scale_outside_the_normal_range_refused(self, bands):
        # f = (|K|/4)^2 is subnormal or 0 at the first two and overflows at the
        # third; the atom masses' partial products reach 1e400 at the fourth
        with pytest.raises(ValueError, match="float64's normal range"):
            minimize_mass(CompactSet(bands))

    def test_scales_inside_the_normal_range_solve(self):
        for bands in IN_RANGE:
            k = CompactSet(bands)
            assert minimize_mass(k).constant == pytest.approx(k.total_length / 4.0,
                                                              rel=1e-12, abs=0)

    def test_shifted_sets_keep_the_relative_accuracy(self):
        # a translation leaves A(K) = |K|/4 alone, so its relative error may
        # not grow with the distance of K from the origin
        for k in shifted_sets(300, 1e4):
            assert abs(minimize_mass(k).constant - k.total_length / 4.0) <= \
                1e-12 * k.total_length / 4.0

    def test_scaling_covariance(self, rng):
        for _ in range(3):
            k = random_compact_set(rng, max_gaps=2)
            alpha, beta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1))
            a1 = minimize_mass(k.affine(alpha, beta)).constant
            a0 = minimize_mass(k).constant
            assert a1 == pytest.approx(alpha * a0, abs=1e-8)

    @pytest.mark.parametrize("scale", [2.0 ** -3, 1.0, 2.0 ** 5])
    def test_power_of_two_scalings_keep_the_relative_accuracy(self, scale):
        # the scaling is exact in float64, so A's relative error may not
        # depend on it; pytest.approx would add an absolute 1e-12 here
        k = CompactSet(SIX_BANDS).affine(scale, 0.0)
        assert abs(minimize_mass(k).constant - k.total_length / 4.0) <= \
            1e-12 * k.total_length / 4.0


def shifted_sets(count, shift_scale):
    """Sets with 1-7 gaps, band widths 10^U(-4, 1) and gap widths 10^U(-7, 2),
    laid left to right, centred on their hull and moved by U(-1, 1) x
    shift_scale."""
    rng = np.random.default_rng(3)
    sets = []
    for _ in range(count):
        g = int(rng.integers(1, 8))
        bands, gaps = 10.0 ** rng.uniform(-4, 1, g + 1), 10.0 ** rng.uniform(-7, 2, g)
        starts = np.concatenate(([0.0], np.cumsum(bands[:-1] + gaps)))
        ends = starts + bands
        shift = 0.5 * ends[-1] - rng.uniform(-1, 1) * shift_scale
        sets.append(CompactSet(tuple(zip((starts - shift).tolist(), (ends - shift).tolist()))))
    return sets


def extreme_sets(seed, count):
    """Sets with 1-5 gaps, band widths 10^U(-3, 1) and gap widths
    10^U(-6, 1.5): minimizers close to the faces of the jump box."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        gaps = int(rng.integers(1, 6))
        widths = 10.0 ** rng.uniform(-3.0, 1.0, gaps + 1)
        spaces = 10.0 ** rng.uniform(-6.0, 1.5, gaps)
        starts = np.concatenate([[0.0], np.cumsum(widths[:-1] + spaces)])
        sets.append(CompactSet(tuple(zip(starts.tolist(), (starts + widths).tolist()))))
    return sets


class TestInteriorMinimizer:
    def test_extreme_sets_converge_inside_the_box(self):
        # ln f's derivatives diverge at every face, so the minimizer is
        # interior; Newton kept inside the box must certify it there
        for k in extreme_sets(17, 40):
            res = minimize_mass(k)
            assert res.kkt_residual <= extremal.KKT_TOL
            assert all(0.0 < g < gd - gc for g, (gc, gd) in zip(res.jumps.masses, k.gaps()))
            assert res.objective_value <= \
                grid_min_mass(k, grid=5).objective_value * (1.0 + 1e-9)

    def test_jumps_match_the_60_digit_stationary_point(self):
        # mpmath Newton on the closed form (conftest) from each returned
        # jump vector finds the stationary point to 60 digits; the roots of
        # P_L - P_R are within 7.8e-15 of the gap width of it
        for k in extreme_sets(17, 40):
            res = minimize_mass(k)
            exact = mp_stationary_point(k, res.jumps.masses)
            for g, x, (gc, gd) in zip(res.jumps.masses, exact, k.gaps()):
                assert abs(g - x) <= 1e-13 * (gd - gc)

    def test_one_gap_jump_splits_the_gap_in_the_ratio_of_the_bands(self):
        # bands [c_0, d_0] and [c_1, d_1]: P_L - P_R = |K| z + c_0 c_1 - d_0 d_1 has
        # the root x = (d_0 d_1 - c_0 c_1)/|K|, and g = c_1 - x = |gap| (d_1 - c_1)/|K|,
        # here in exact rational arithmetic
        rng = np.random.default_rng(11)
        for _ in range(100):
            w0, w1 = 10.0 ** rng.uniform(-3.0, 1.0, 2)
            c0 = rng.uniform(-50.0, 50.0)
            c1 = c0 + w0 + 10.0 ** rng.uniform(-6.0, 0.0)
            k = CompactSet(((c0, c0 + w0), (c1, c1 + w1)))
            (c0, d0), (c1, d1) = [(Fraction(c), Fraction(d)) for c, d in k.intervals]
            exact = c1 - (d0 * d1 - c0 * c1) / ((d0 - c0) + (d1 - c1))
            assert abs(minimize_mass(k).jumps.masses[0] - exact) <= 1e-13 * (c1 - d0)

    @pytest.mark.parametrize("bands", [
        ((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0)),
        ((-1.0, 0.25), (0.5, 1.75), (3.0, 3.125)),
        ((0.0, 0.3), (0.5, 1.7), (2.0, 2.2), (3.0, 4.5)),
        NARROW_GAP_BANDS,
    ])
    def test_stationary_point_is_the_root_of_p_l_minus_p_r(self, bands):
        # P_L and P_R are the products of z - e over the left and the right band
        # ends; in each gap the 60-digit stationary point's jump point is the root
        # of P_L - P_R, found by a bracketing solver on the gap
        k = CompactSet(bands)
        exact = mp_stationary_point(k, minimize_mass(k).jumps.masses)
        with mpmath.workdps(60):
            lefts, rights = zip(*[(mpmath.mpf(c), mpmath.mpf(d)) for c, d in bands])

            def p_l_minus_p_r(x):
                return mpmath.fprod(x - c for c in lefts) - mpmath.fprod(x - d for d in rights)

            for g, (gc, gd) in zip(exact, k.gaps()):
                root = mpmath.findroot(p_l_minus_p_r, (mpmath.mpf(gc), mpmath.mpf(gd)),
                                       solver="anderson")
                assert abs((gd - g) - root) <= mpmath.mpf(10) ** -40 * (gd - gc)

    def test_residual_is_the_scaled_gradient(self):
        k = CompactSet(((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0)))
        res = minimize_mass(k)
        fast = extremal._FastObjective(k)
        grad, _ = fast.log_derivatives(np.array(res.jumps.masses))
        assert res.kkt_residual == float(np.max(np.abs(grad * fast.gap_widths)))


class TestDerivatives:
    @pytest.mark.parametrize("bands", [
        ((-2.0, -0.5), (0.5, 2.0)),
        ((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0)),
        ((0.0, 0.3), (0.5, 1.7), (2.0, 2.2), (3.0, 4.5)),
        # bands 8e-3 and 1.3 wide, minimizer at 0.994 of the gap width
        extreme_sets(17, 40)[34].intervals,
    ])
    def test_gradient_and_hessian_match_finite_differences(self, bands, rng):
        k = CompactSet(bands)
        fast = extremal._FastObjective(k)
        widths = fast.gap_widths
        g = rng.uniform(0.2, 0.8, len(widths)) * widths
        grad, _ = fast.log_derivatives(g)
        # the grid oracle runs the same kernel on a block of product points
        oracle = fast.grid_values([np.array([x]) for x in g]).item()
        assert fast.value(g) == pytest.approx(oracle, rel=1e-13, abs=0)

        def log_f(x):
            return math.log(fast.value(x))

        h = 1e-5 * widths
        fd_grad = np.empty(len(g))
        fd_hess = np.empty((len(g), len(g)))
        for j in range(len(g)):
            e = np.zeros(len(g))
            e[j] = h[j]
            fd_grad[j] = (log_f(g + e) - log_f(g - e)) / (2 * h[j])
            for i in range(len(g)):
                d = np.zeros(len(g))
                d[i] = h[i]
                fd_hess[i, j] = (log_f(g + e + d) - log_f(g + e - d)
                                 - log_f(g - e + d) + log_f(g - e - d)) / (4 * h[i] * h[j])
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-7, atol=1e-7)
        # ln f is convex, so the certified stationary point is the global minimizer
        assert np.all(np.linalg.eigvalsh(fd_hess) > 0.0)

    def test_gradient_errors_within_their_rounding_bound_near_a_left_face(self):
        # one jump 10^U(-8, -1) of its gap's width right of the face c_j, the
        # others anywhere inside: each distance x_j - p is a sum of terms of
        # one sign, so the gradient is within its bound of the 50-digit
        # closed form (conftest) at every point
        rng = np.random.default_rng(5)
        for k in extreme_sets(17, 100):
            fast = extremal._FastObjective(k)
            for _ in range(2):
                y = rng.uniform(0.05, 0.95, len(fast.gap_widths))
                y[int(rng.integers(0, y.size))] = 1.0 - 10.0 ** rng.uniform(-8.0, -1.0)
                g = y * fast.gap_widths
                grad, grad_err = fast.log_derivatives(g)
                with mpmath.workdps(50):
                    f, df = mp_mass_objective(k, g.tolist())
                    exact = np.array([float(d / f) for d in df])
                assert np.all(np.abs(grad - exact) <= grad_err), (k.intervals, y)


class TestGridOracle:
    def test_oversized_grid_refused(self):
        k = CompactSet(tuple((float(i), float(i) + 0.4) for i in range(6)))
        with pytest.raises(ValueError):
            grid_min_mass(k, grid=51)

    def test_single_point_box(self):
        res = grid_min_mass(CompactSet(((-2.0, 2.0),)), grid=11)
        assert res.constant == pytest.approx(1.0, abs=1e-8)

    def test_finer_grids_never_worse(self):
        coarse = grid_min_mass(SYMMETRIC_TWO_BAND, grid=51)
        fine = grid_min_mass(SYMMETRIC_TWO_BAND, grid=401)
        assert fine.objective_value <= coarse.objective_value + 1e-12

    def test_two_gap_cross_validation(self):
        k = CompactSet(((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0)))
        res = minimize_mass(k)
        oracle = grid_min_mass(k, grid=41)
        assert abs(res.objective_value - oracle.objective_value) < 1e-3
        assert res.objective_value <= oracle.objective_value + 1e-12


class TestLowerBoundProperty:
    def test_random_reflectionless_inputs_respect_the_constant(self, rng):
        k = SYMMETRIC_TWO_BAND
        a_min = minimize_mass(k).constant
        from reflectionless.experiments import random_f_selector
        for _ in range(15):
            xi = random_admissible_krein(rng, k)
            rho = stieltjes_invert(HerglotzRep(xi))
            f = random_f_selector(rng, rho, k)
            nu = half_line_measure(rho, k, f)
            a0 = math.sqrt(total_mass(nu))
            assert a0 >= a_min - 1e-6

    def test_flow_only_lowers_the_band_mass(self, rng):
        for _ in range(15):
            k = random_compact_set(rng, max_gaps=2)
            xi = random_admissible_krein(rng, k)
            rep = HerglotzRep(xi)
            unflowed = sum(
                quad(lambda x: abs_boundary(rep, x) / (2.0 * math.pi), c, d,
                     limit=200)[0]
                for c, d in k.intervals)
            canon = flow_to_canonical(xi, k)
            assert is_canonical(canon, k)
            jumps = GapJumps(gap_jump_masses(canon, k))
            flowed = mass_objective(k, jumps)
            assert flowed <= unflowed + 1e-7

    def test_canonical_krein_matches_flow_output(self, rng):
        for _ in range(20):
            k = random_compact_set(rng, max_gaps=3)
            xi = random_admissible_krein(rng, k)
            canon = flow_to_canonical(xi, k)
            assert is_canonical(canon, k)
            rebuilt = canonical_krein_from_jumps(k, GapJumps(gap_jump_masses(canon, k)),
                                                 bound=xi.bound)
            *_, (_, stepped) = flow_steps(xi, k)
            assert canon == rebuilt == stepped

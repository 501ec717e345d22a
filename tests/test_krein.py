import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflectionless import HerglotzRep, StepFunction, free_krein, herglotz_eval

from conftest import (abs_boundary, hilbert_transform, interior_points, log_abs_on_arc,
                      per_piece_log_abs, random_step, value_at)


def free_rep(bound=2.0):
    return HerglotzRep(free_krein(bound))


def with_value_by_sweep(s, lo, hi, value):
    """Reference for `StepFunction.with_value`: a sweep over the pieces that
    emits each one cut at lo and hi."""
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return s
    bk, vals = [s.breakpoints[0]], []
    def emit(x1, v):
        bk.append(x1)
        vals.append(v)
    for x0, x1, v in s.pieces():
        if x1 <= lo or x0 >= hi:
            emit(x1, v)
            continue
        if x0 < lo:
            emit(lo, v)
        if x1 > hi:
            emit(hi, value)
            emit(x1, v)
        elif x1 == hi:
            emit(hi, value)
        else:
            emit(x1, value)
    return StepFunction(s.bound, tuple(bk), tuple(vals))


class TestStepFunction:
    @pytest.mark.parametrize("bound, breakpoints, values", [
        (2.0, (-2.0, 0.0, 2.0), (0.5, math.nan)),
        (2.0, (-2.0, math.nan, 2.0), (0.5, 0.0)),
        (math.inf, (-math.inf, math.inf), (0.5,)),
    ], ids=["nan-value", "nan-breakpoint", "infinite-bound"])
    def test_non_finite_input_rejected(self, bound, breakpoints, values):
        with pytest.raises(ValueError):
            StepFunction(bound, breakpoints, values)

    def test_canonical_merges_equal_neighbors(self):
        s = StepFunction(2.0, (-2.0, -1.0, 0.0, 2.0), (0.5, 0.5, 0.0))
        assert s.breakpoints == (-2.0, 0.0, 2.0)
        assert s.values == (0.5, 0.0)

    def test_zero_width_pieces_dropped(self):
        s = StepFunction(2.0, (-2.0, 0.0, 0.0, 2.0), (0.5, 1.0, 0.0))
        assert s.breakpoints == (-2.0, 0.0, 2.0)

    def test_value_lookup_and_breakpoint_rejection(self):
        s = free_krein(3.0)
        assert value_at(s, 1.0) == 0.5
        assert value_at(s, -2.5) == 1.0
        with pytest.raises(ValueError):
            value_at(s, 2.0)
        with pytest.raises(ValueError):
            value_at(s, 3.5)

    def test_values_on_overlapping_pieces(self):
        s = free_krein(3.0)
        assert s.values_on(-2.5, 2.5) == (1.0, 0.5, 0.0)
        assert s.values_on(-2.0, 2.0) == (0.5,)
        # touching a piece at a breakpoint is no overlap
        assert s.values_on(2.0, 2.0) == ()
        assert s.values_on(3.0, 4.0) == ()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_values_on_matches_the_definition(self, seed):
        rng = np.random.default_rng(seed)
        s = random_step(rng, value_grid=[0.0, 0.5, 1.0, 0.25])
        # ends on the breakpoints, inside, and outside [-R, R], in either order
        ends = (list(s.breakpoints) + rng.uniform(-s.bound, s.bound, 4).tolist()
                + [-2.0 * s.bound, 2.0 * s.bound])
        for _ in range(30):
            lo, hi = (float(x) for x in rng.choice(ends, size=2))
            brute = tuple(v for x0, x1, v in s.pieces() if min(x1, hi) > max(x0, lo))
            assert s.values_on(lo, hi) == brute

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(2.0, (-2.0, 2.0), (1.5,))

    @pytest.mark.parametrize("pieces", [[(-3.0, 0.0, 1.0)], [(0.0, 3.0, 1.0)],
                                        [(-1.0, 0.5, 1.0), (0.0, 2.5, 0.5)]])
    def test_piece_past_the_domain_is_reported_as_such(self, pieces):
        with pytest.raises(ValueError, match="outside"):
            StepFunction.from_pieces(2.0, pieces)

    def test_reversed_piece_rejected_and_empty_piece_dropped(self):
        with pytest.raises(ValueError, match="hi < lo"):
            StepFunction.from_pieces(2.0, [(1.0, 0.5, 1.0)])
        with pytest.raises(ValueError, match="hi < lo"):
            StepFunction.from_pieces(2.0, [(-1.0, 0.0, 1.0), (1.0, 0.5, 0.5)])
        s = StepFunction.from_pieces(2.0, [(0.5, 0.5, 1.0), (0.0, 0.25, 0.5)])
        assert s == StepFunction.from_pieces(2.0, [(0.0, 0.25, 0.5)])

    def test_empty_piece_with_a_value_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
            StepFunction.from_pieces(2.0, [(0.5, 0.5, 1.5), (0.0, 0.25, 0.5)])

    def test_with_value_splices(self):
        s = free_krein(3.0).with_value(2.0, 2.5, 0.5)
        assert value_at(s, 2.2) == 0.5
        assert value_at(s, 2.7) == 0.0
        # merged with the central 1/2 piece
        assert s.breakpoints == (-3.0, -2.0, 2.5, 3.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_with_value_matches_the_sweep(self, seed):
        rng = np.random.default_rng(seed)
        s = random_step(rng, value_grid=[0.0, 0.5, 1.0])
        # ends drawn from the breakpoints (-R and R among them) and the interior
        ends = list(s.breakpoints) + rng.uniform(-s.bound, s.bound, 4).tolist()
        for _ in range(20):
            lo, hi = sorted(rng.choice(ends, size=2))
            value = float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))
            assert s.with_value(lo, hi, value) == with_value_by_sweep(s, lo, hi, value)

    def test_integral_exact(self):
        s = free_krein(3.0)
        assert s.integral() == pytest.approx(1.0 + 2.0, abs=0)
        assert s.integral(-2.0, 2.0) == 2.0

    @pytest.mark.parametrize("seed", range(40))
    def test_integral_is_the_sweep_over_all_pieces(self, seed):
        # only the pieces that overlap (lo, hi) are visited; they add up
        # bitwise as a sweep over every piece does, also for ends on
        # breakpoints, past the domain, or with hi <= lo
        rng = np.random.default_rng(seed)
        s = random_step(rng, bound=3.0, max_pieces=10, min_width=0.1)
        ends = [*s.breakpoints, *rng.uniform(-4.0, 4.0, 6).tolist()]
        for _ in range(20):
            lo, hi = (float(x) for x in rng.choice(ends, size=2))
            sweep = 0.0
            for x0, x1, v in s.pieces():
                if min(x1, hi) > max(x0, lo):
                    sweep += v * (min(x1, hi) - max(x0, lo))
            assert s.integral(lo, hi) == sweep

    def test_dict_form_is_the_documented_format(self):
        # the form a failing thm11 sample prints its xi in (README, "File formats")
        assert free_krein(2.0).to_dict() == \
            {"R": 2.0, "breakpoints": [-2.0, 2.0], "values": [0.5]}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dict_form_rebuilds_the_step(self, seed):
        # a printed xi is enough to rerun the failing sample by hand
        s = random_step(np.random.default_rng(seed))
        d = json.loads(json.dumps(s.to_dict()))
        assert StepFunction(d["R"], tuple(d["breakpoints"]), tuple(d["values"])) == s

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_distances_vanish_only_on_equal(self, seed):
        rng = np.random.default_rng(seed)
        s = random_step(rng)
        assert s.l1_distance(s) == 0.0
        t = random_step(rng, bound=s.bound)
        assert s.l1_distance(t) >= 0.0
        assert abs(s.l1_distance(t) - t.l1_distance(s)) < 1e-14


class TestFreeKrein:
    def test_minimal_bound_single_piece(self):
        s = free_krein(2.0)
        assert list(s.pieces()) == [(-2.0, 2.0, 0.5)]

    def test_three_piece_shape(self):
        s = free_krein(3.0)
        assert list(s.pieces()) == [(-3.0, -2.0, 1.0), (-2.0, 2.0, 0.5), (2.0, 3.0, 0.0)]

    def test_band_value(self):
        assert value_at(free_krein(2.0), 1.0) == 0.5

    def test_bound_below_band_rejected(self):
        with pytest.raises(ValueError):
            free_krein(1.5)


class TestHerglotzEval:
    def test_free_at_2i(self):
        h = herglotz_eval(free_rep(), 2j)
        assert h == pytest.approx(2.0 * math.sqrt(2.0) * 1j, abs=1e-12)

    def test_free_right_of_band(self):
        assert herglotz_eval(free_rep(), 3.0) == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_full_value_piece_telescopes(self):
        rep = HerglotzRep(StepFunction.from_pieces(3.0, [(-3.0, 3.0, 1.0)]))
        assert herglotz_eval(rep, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_free_matches_square_root_branch(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-5, 5, 200) + 1j * 10.0 ** rng.uniform(-3, 1, 200)
        h = herglotz_eval(free_rep(), z)
        ref = z * np.sqrt(1.0 - 4.0 / z**2)
        assert np.max(np.abs(h - ref) / np.abs(ref)) < 1e-12

    def test_rejects_points_on_the_cut(self):
        with pytest.raises(ValueError, match="on the cut"):
            herglotz_eval(free_rep(), 1.0)

    @pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(0.5, math.inf),
                                   np.array([2j, complex(math.nan, 1.0)])])
    def test_rejects_non_finite_points(self, z):
        with pytest.raises(ValueError, match="finite"):
            herglotz_eval(free_rep(), z)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_upper_half_plane_maps_to_itself(self, seed):
        rng = np.random.default_rng(seed)
        rep = HerglotzRep(random_step(rng))
        z = rng.uniform(-6, 6, 25) + 1j * 10.0 ** rng.uniform(-3, 1, 25)
        assert np.all(herglotz_eval(rep, z).imag > 0.0)

    def test_linear_growth_along_imaginary_axis(self):
        rng = np.random.default_rng(5)
        rep = HerglotzRep(random_step(rng))
        ratios = [abs(herglotz_eval(rep, 1j * y) / (1j * y) - 1.0)
                  for y in (1e3, 1e4, 1e5, 1e6)]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 1e-5


def vertical_limit(rep, x, eta=1e-5):
    """H(x + i0) by Richardson extrapolation of H(x + i eta) and H(x + i eta/2)."""
    return 2.0 * herglotz_eval(rep, x + 0.5j * eta) - herglotz_eval(rep, x + 1j * eta)


class TestBoundaryValues:
    # H(x + i0) = |H(x)| e^{i pi xi(x)} on (-R, R) off the jumps: the modulus
    # is abs_boundary's, the phase is pi times the Krein function's value

    def test_free_center(self):
        assert abs_boundary(free_rep(), 0.0) == pytest.approx(2.0, abs=1e-12)
        assert vertical_limit(free_rep(), 0.0) == pytest.approx(2j, abs=1e-9)

    def test_free_inside_band(self):
        assert abs_boundary(free_rep(), 1.0) == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert vertical_limit(free_rep(), 1.0) == pytest.approx(math.sqrt(3.0) * 1j, abs=1e-9)

    def test_zero_piece_gives_positive_real(self):
        assert abs_boundary(free_rep(3.0), 2.5) == pytest.approx(1.5, abs=1e-12)
        assert vertical_limit(free_rep(3.0), 2.5) == pytest.approx(1.5, abs=1e-9)

    def test_breakpoint_rejected(self):
        with pytest.raises(ValueError, match="jump"):
            abs_boundary(free_rep(3.0), 2.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, np.array([0.5, math.nan])])
    def test_non_finite_points_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            abs_boundary(free_rep(), x)

    def test_array_points_match_scalar_points(self):
        rng = np.random.default_rng(19)
        xi = random_step(rng, max_pieces=5)
        rep = HerglotzRep(xi)
        xs = interior_points(xi, rng, 12)
        assert abs_boundary(rep, xs).tolist() == [float(abs_boundary(rep, x)) for x in xs]

    def test_phase_matches_vertical_limit(self):
        rng = np.random.default_rng(11)
        xi = random_step(rng, max_pieces=4, min_width=0.3)
        rep = HerglotzRep(xi)
        for x in interior_points(xi, rng, 10):
            bv = abs_boundary(rep, x) * np.exp(1j * math.pi * value_at(xi, x))
            assert abs(vertical_limit(rep, x) - bv) < 1e-6 * max(1.0, abs(bv))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_modulus_identity_against_vertical_limit(self, seed):
        # |H(x)| from the log-modulus formula must agree with the limit of
        # |H(x + i eta)| computed through the complex principal powers.
        rng = np.random.default_rng(seed)
        xi = random_step(rng, max_pieces=4, min_width=0.3)
        rep = HerglotzRep(xi)
        xs = interior_points(xi, rng, 20)
        closed = abs_boundary(rep, xs)
        eta = 1e-4
        v1 = np.abs(herglotz_eval(rep, xs + 1j * eta))
        v2 = np.abs(herglotz_eval(rep, xs + 0.5j * eta))
        v3 = np.abs(herglotz_eval(rep, xs + 0.25j * eta))
        extrap = (8.0 * v3 - 6.0 * v2 + v1) / 3.0
        assert np.max(np.abs(extrap - closed) / np.maximum(1.0, closed)) < 1e-6


class TestHilbertTransform:
    def test_indicator_right_of_support(self):
        f = StepFunction.from_pieces(2.0, [(0.0, 1.0, 1.0)])
        assert hilbert_transform(f, 2.0) == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_principal_value_symmetry_point(self):
        f = StepFunction.from_pieces(2.0, [(0.0, 1.0, 1.0)])
        assert hilbert_transform(f, 0.5) == 0.0

    def test_indicator_left_of_support(self):
        f = StepFunction.from_pieces(2.0, [(0.0, 1.0, 1.0)])
        assert hilbert_transform(f, -1.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_jump_point_rejected(self):
        f = StepFunction.from_pieces(2.0, [(0.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            hilbert_transform(f, 1.0)

    @pytest.mark.parametrize("x", [math.nan, -math.inf, np.array([0.5, math.nan])])
    def test_non_finite_points_rejected(self, x):
        f = StepFunction.from_pieces(2.0, [(0.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            hilbert_transform(f, x)

    def test_l2_convergence_carries_to_transform(self):
        # T is linear, so xi_n = xi + (eta - xi)/n converging in L^2 forces
        # T xi_n -> T xi at the same rate on any off-breakpoint grid.
        rng = np.random.default_rng(7)
        r = 3.0
        edges = (-3.0, -1.0, 0.5, 3.0)
        xi = StepFunction(r, edges, (0.2, 0.8, 0.4))
        eta = StepFunction(r, edges, (0.6, 0.1, 0.9))
        grid = np.array([-2.0, -0.3, 1.7, 2.4, 4.0])
        base = hilbert_transform(xi, grid)
        d1 = None
        for n in (1, 2, 4, 8, 16):
            mixed = StepFunction(r, edges, tuple(
                v + (w - v) / n for v, w in zip(xi.values, eta.values)))
            dn = float(np.max(np.abs(hilbert_transform(mixed, grid) - base)))
            if d1 is None:
                d1 = dn
            assert dn <= 1.01 * d1 / n

    def test_arc_evaluation_matches_interior_formula(self):
        rng = np.random.default_rng(13)
        xi = random_step(rng, max_pieces=4, min_width=0.3)
        rep = HerglotzRep(xi)
        lo, hi, _ = np.array(list(xi.pieces())).T[:, :, None]
        theta = np.linspace(-1.2, 1.2, 7)
        # one row per piece
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.sin(theta)
        assert np.allclose(np.exp(log_abs_on_arc(rep, lo, hi, theta)),
                           abs_boundary(rep, t), rtol=1e-12)

    @staticmethod
    def arc_pieces(seed):
        xi = random_step(np.random.default_rng(seed), max_pieces=6, min_width=0.2)
        return xi, [(lo, hi) for lo, hi, _ in xi.pieces()] + [(-0.1, 0.2)]

    def test_arc_evaluation_is_the_per_piece_sum(self):
        # pieces as a column against one shared theta: the broadcast form
        # adds the same terms in the same order as a sum over the
        # breakpoints of one piece at a time
        xi, pieces = self.arc_pieces(17)
        theta = np.linspace(-np.pi / 2, np.pi / 2, 33)[1:-1]
        lo, hi = np.array(pieces).T[:, :, None]
        rows = log_abs_on_arc(HerglotzRep(xi), lo, hi, theta)
        for (lo, hi), row in zip(pieces, rows):
            assert np.array_equal(row, per_piece_log_abs(xi, lo, hi, theta))

    def test_arc_evaluation_on_a_ragged_flat_layout(self):
        # one flat array of nodes, node i on piece index[i], each piece with
        # its own rule size: bitwise the per-piece sum as well
        xi, pieces = self.arc_pieces(19)
        sizes = [5 + 7 * i for i in range(len(pieces))]
        thetas = [np.linspace(-np.pi / 2, np.pi / 2, n + 2)[1:-1] for n in sizes]
        lo, hi = np.array(pieces)[np.repeat(np.arange(len(pieces)), sizes)].T
        flat = log_abs_on_arc(HerglotzRep(xi), lo, hi, np.concatenate(thetas))
        ref = [per_piece_log_abs(xi, a, b, th) for (a, b), th in zip(pieces, thetas)]
        assert np.array_equal(flat, np.concatenate(ref))


def log_abs_on_arc_by_masks(rep, lo, hi, theta):
    """The kernel as it was before its fixed cost was cut: full-size masks
    place the edge distances, and one add per breakpoint sums the terms.
    The bitwise reference for `log_abs_on_arc`."""
    xi = rep.xi
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = mid + half * np.sin(theta)
    d = xi.abs_log_coefficients
    xk = np.asarray(xi.breakpoints)[d != 0.0].reshape((-1,) + (1,) * t.ndim)
    phase = 0.25 * np.pi - 0.5 * theta
    terms = t - xk
    np.abs(terms, out=terms)
    np.copyto(terms, 2.0 * half * np.cos(phase) ** 2, where=xk == lo)
    np.copyto(terms, 2.0 * half * np.sin(phase) ** 2, where=xk == hi)
    np.log(terms, out=terms)
    terms *= d[d != 0.0].reshape(xk.shape)
    out = np.zeros_like(t)
    for term in terms:
        out += term
    return out


class TestArcKernelOracle:
    """`log_abs_on_arc`, the library's arc kernel `_arc_log_abs` as the
    densities run it, against `log_abs_on_arc_by_masks`, bitwise."""

    @staticmethod
    def case(seed):
        """A step function with up to 14 pieces, values from a grid that
        includes 0, 1/2 and 1 (so some log coefficients vanish), and pieces:
        its own, ones that share one edge with a breakpoint, and ones that
        share none; thetas that include points within 1e-8 of +-pi/2."""
        rng = np.random.default_rng(seed)
        xi = random_step(rng, max_pieces=14, min_width=0.05,
                         value_grid=(0.0, 0.25, 0.5, 0.5, 1.0))
        bk = xi.breakpoints
        pieces = [(lo, hi) for lo, hi, _ in xi.pieces()]
        lo, hi = pieces[int(rng.integers(len(pieces)))]
        pieces += [(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi),
                   (float(rng.uniform(bk[0], bk[-1] - 0.1)), bk[-1] - 0.05)]
        edge = 0.5 * np.pi - np.concatenate(([0.0, 1e-16], 10.0 ** rng.uniform(-16, -8, 6)))
        theta = np.concatenate((-edge, edge, rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 25)))
        return HerglotzRep(xi), np.array(pieces), rng.permutation(theta)

    @pytest.mark.parametrize("seed", range(40))
    def test_broadcast_piece_index(self, seed):
        rep, pieces, theta = self.case(seed)
        lo, hi = pieces.T[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            got, ref = (f(rep, lo, hi, theta) for f in (log_abs_on_arc, log_abs_on_arc_by_masks))
        assert got.shape == ref.shape == (len(pieces), theta.size)
        assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("seed", range(40))
    def test_flat_piece_index(self, seed):
        rep, pieces, theta = self.case(seed)
        index = np.random.default_rng(seed).integers(len(pieces), size=theta.size)
        lo, hi = pieces[index].T
        with np.errstate(divide="ignore", invalid="ignore"):
            got, ref = (f(rep, lo, hi, theta) for f in (log_abs_on_arc, log_abs_on_arc_by_masks))
        assert got.shape == ref.shape == theta.shape
        assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_piece_and_single_points(self, seed):
        # one piece against a vector, and single points, where a sum over
        # the breakpoints would run along numpy's pairwise-summed axis
        rep, pieces, theta = self.case(seed)
        (lo, hi), th = pieces[0], theta[:1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for args in ((lo, hi, theta), (lo, hi, th), (lo, hi, th[0]),
                         (pieces[:1, :1], pieces[:1, 1:], th)):
                got, ref = log_abs_on_arc(rep, *args), log_abs_on_arc_by_masks(rep, *args)
                assert np.shape(got) == np.shape(ref)
                assert np.array_equal(got, ref, equal_nan=True)


class TestCorrectionFactor:
    """|H| on (-2, 2) against |H_0(x)| = sqrt(4 - x^2), the free reference
    (xi = 1/2 on the band, R = 2), for xi = 1/2 on the band: the factor
    |H| / |H_0| is exp of the closed-form integrals of (xi - 1)/(t - x) over
    (-R, -2) and xi/(t - x) over (2, R), both nonnegative, so |H| >= |H_0|
    (the key inequality of arXiv 1006.2780)."""

    def test_free_reference_is_one(self):
        for r in (2.0, 2.5, 3.0, 4.0):
            assert abs_boundary(free_rep(r), 0.3) == pytest.approx(
                math.sqrt(4.0 - 0.09), abs=1e-14)

    def test_right_half_piece(self):
        xi = StepFunction.from_pieces(
            2.5, [(-2.5, -2.0, 1.0), (-2.0, 2.0, 0.5), (2.0, 2.5, 0.5)])
        assert abs_boundary(HerglotzRep(xi), 0.0) == pytest.approx(
            2.0 * math.sqrt(1.25), abs=1e-14)

    def test_left_zero_piece(self):
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.0, 0.0), (-2.0, 2.0, 0.5), (2.0, 3.0, 0.0)])
        assert abs_boundary(HerglotzRep(xi), 0.0) == pytest.approx(2.0 * 1.5, abs=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_never_below_one_for_admissible_inputs(self, seed):
        rng = np.random.default_rng(seed)
        r = float(rng.uniform(2.2, 4.0))
        pieces = [(-2.0, 2.0, 0.5)]
        cut_l = float(rng.uniform(-r + 0.1, -2.05))
        pieces += [(-r, cut_l, float(rng.uniform(0, 1))),
                   (cut_l, -2.0, float(rng.uniform(0, 1)))]
        cut_r = float(rng.uniform(2.05, r - 0.1))
        pieces += [(2.0, cut_r, float(rng.uniform(0, 1))),
                   (cut_r, r, float(rng.uniform(0, 1)))]
        rep = HerglotzRep(StepFunction.from_pieces(r, pieces))
        for x in rng.uniform(-1.9, 1.9, 10):
            assert abs_boundary(rep, x) >= math.sqrt(4.0 - x**2) * (1.0 - 1e-13)

    def test_matches_modulus_ratio(self):
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.4, 0.0), (-2.4, -2.0, 1.0), (-2.0, 2.0, 0.5),
                  (2.0, 2.7, 1.0), (2.7, 3.0, 0.0)])
        rep = HerglotzRep(xi)
        for x in (-1.5, -0.2, 0.9, 1.8):
            # the 0 on (-3, -2.4) and the 1 on (2, 2.7) give the factor
            factor = (3.0 + x) / (2.4 + x) * (2.7 - x) / (2.0 - x)
            assert abs_boundary(rep, x) == pytest.approx(
                math.sqrt(4.0 - x**2) * factor, rel=1e-12, abs=0)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflectionless import (CompactSet, GapJumps, StepFunction,
                            canonical_krein_from_jumps, flow_to_canonical, free_krein, gap_jump_masses,
                            mass_objective)
from reflectionless.experiments import random_admissible_krein

from conftest import (flow_steps, gap_modify, hilbert_transform, is_canonical,
                      random_compact_set, value_at)


def half_on(k_set, rng, bound=None):
    return random_admissible_krein(rng, k_set, bound)


class TestCompactSet:
    @pytest.mark.parametrize("intervals", [((0.0, np.inf),), ((-np.inf, 0.0),),
                                           ((-1.0, 0.0), (1.0, np.inf)), ((np.nan, 1.0),)])
    def test_non_finite_endpoints_rejected(self, intervals):
        with pytest.raises(ValueError, match="unbounded"):
            CompactSet(intervals)

    @pytest.mark.parametrize("count", [2.5, True, 0, -1])
    def test_interior_grid_refuses_non_integer_counts(self, count):
        # a fractional count would put a point on the band end 1.0, and True would give one
        with pytest.raises(ValueError, match="integer >= 1"):
            CompactSet(((0.0, 1.0),)).interior_grid(count)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_interior_grid_is_the_per_band_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_bands, count = int(rng.integers(1, 7)), int(rng.integers(1, 101))
        edges = np.cumsum(rng.uniform(0.01, 2.0, 2 * n_bands)) - 3.0
        k_set = CompactSet(tuple(zip(edges[::2].tolist(), edges[1::2].tolist())))
        loop = np.concatenate([c + (np.arange(count) + 0.5) * (d - c) / count
                               for c, d in k_set.intervals])
        assert np.array_equal(k_set.interior_grid(count), loop)


class TestGapModify:
    def test_half_mass_splits_the_gap(self):
        xi = StepFunction.from_pieces(2.0, [(-2.0, 2.0, 0.5)])
        out = gap_modify(xi, (0.0, 1.0))
        assert value_at(out, 0.25) == 0.0
        assert value_at(out, 0.75) == 1.0
        assert 0.5 in out.breakpoints

    def test_empty_gap_mass_unchanged(self):
        xi = free_krein(3.0)  # value 0 on (2, 3)
        assert gap_modify(xi, (2.0, 3.0)) == xi

    def test_full_gap_mass_unchanged(self):
        xi = free_krein(3.0)  # value 1 on (-3, -2)
        assert gap_modify(xi, (-3.0, -2.0)) == xi

    def test_mass_preserved_exactly(self, rng):
        for _ in range(20):
            k_set = random_compact_set(rng)
            xi = half_on(k_set, rng)
            for gap in k_set.gaps():
                before = xi.integral(*gap)
                after = gap_modify(xi, gap).integral(*gap)
                assert after == pytest.approx(before, abs=1e-14)

    def test_gap_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            gap_modify(free_krein(2.0), (1.0, 3.0))


class TestFlow:
    def test_no_gap_no_tail_identity(self):
        xi = free_krein(2.0)
        k_set = CompactSet(((-2.0, 2.0),))
        out = flow_to_canonical(xi, k_set)
        assert out == xi and is_canonical(out, k_set)

    def test_tail_assignment_only(self):
        xi = StepFunction.from_pieces(3.0, [(-3.0, 3.0, 0.5)])
        k_set = CompactSet(((-2.0, 2.0),))
        out = flow_to_canonical(xi, k_set)
        assert is_canonical(out, k_set)
        assert list(out.pieces()) == [(-3.0, -2.0, 1.0), (-2.0, 2.0, 0.5),
                                      (2.0, 3.0, 0.0)]

    def test_partial_gap_mass_right_packs(self):
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.0, 0.5), (-2.0, 0.0, 0.5), (0.0, 1.0, 0.3), (1.0, 2.0, 0.5),
                  (2.0, 3.0, 0.5)])
        k_set = CompactSet(((-2.0, 0.0), (1.0, 2.0)))
        out = flow_to_canonical(xi, k_set)
        assert is_canonical(out, k_set)
        assert gap_jump_masses(out, k_set) == pytest.approx((0.3,), abs=1e-15)
        assert value_at(out, 0.5) == 0.0
        assert value_at(out, 0.85) == 1.0
        # the transform dropped on the bands
        pts = k_set.interior_grid(25)
        assert np.all(hilbert_transform(out, pts) <= hilbert_transform(xi, pts) + 1e-12)

    def test_requires_half_on_bands(self):
        xi = StepFunction.from_pieces(3.0, [(-3.0, 3.0, 0.4)])
        with pytest.raises(ValueError):
            flow_to_canonical(xi, CompactSet(((-2.0, 2.0),)))

    def test_gap_mass_rounding_past_the_width(self):
        # xi is just below 1 on part of a wide gap, and its integral rounds
        # above the width, which GapJumps refuses; xi <= 1, so the excess is
        # rounding and the gap mass is the width
        c, m, d = -8.893267542630808, 8.768654544025708, 10.452013204212161
        k_set = CompactSet(((c - 1.0, c), (d, d + 1.0)))
        xi = StepFunction(12.0, (-12.0, c - 1.0, c, m, d, d + 1.0, 12.0),
                          (1.0, 0.5, 1.0, float(np.nextafter(1.0, 0.0)), 0.5, 0.0))
        assert xi.integral(c, d) > (d - c) + 1e-15
        jumps = GapJumps(gap_jump_masses(xi, k_set))
        assert jumps.masses == (d - c,)
        jumps.validate(k_set)
        assert mass_objective(k_set, jumps) == mass_objective(k_set, GapJumps((d - c,)))
        *_, (_, stepped) = flow_steps(xi, k_set)
        canon = flow_to_canonical(xi, k_set)
        assert canon == stepped and is_canonical(canon, k_set)
        assert stepped.values_on(c, d) == (1.0,)
        # a mass clearly over the width is still refused
        with pytest.raises(ValueError):
            GapJumps((d - c + 1e-12,)).validate(k_set)

    def test_jump_mass_bound_is_the_exact_width(self):
        # a gap of width 1e-30: the bound is the width itself at any scale
        k_set = CompactSet(((0.0, 1e-30), (2e-30, 3e-30)))
        GapJumps((1e-30,)).validate(k_set)
        with pytest.raises(ValueError, match="outside"):
            GapJumps((1e-16,)).validate(k_set)

    def test_idempotent_up_to_rounding(self, rng):
        for _ in range(10):
            k_set = random_compact_set(rng)
            xi = half_on(k_set, rng)
            once = flow_to_canonical(xi, k_set)
            twice = flow_to_canonical(once, k_set)
            assert is_canonical(once, k_set) and is_canonical(twice, k_set)
            assert twice.bound == once.bound and twice.l1_distance(once) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transform_never_increases_on_bands(self, seed):
        rng = np.random.default_rng(seed)
        k_set = random_compact_set(rng)
        xi = half_on(k_set, rng)
        pts = k_set.interior_grid(50)
        prev = xi
        for _, cur in flow_steps(xi, k_set):
            drop = hilbert_transform(prev, pts) - hilbert_transform(cur, pts)
            assert np.min(drop) >= -1e-12
            prev = cur

    def test_strict_decrease_for_visible_modification(self, rng):
        k_set = CompactSet(((-2.0, -0.5), (0.5, 2.0)))
        xi = free_krein(3.0).with_value(-0.5, 0.5, 0.5)
        out = gap_modify(xi, (-0.5, 0.5))
        assert xi.l1_distance(out) > 0.1  # visibly modified
        for x in rng.uniform(0.55, 1.95, 10):
            drop = hilbert_transform(xi, float(x)) - hilbert_transform(out, float(x))
            assert drop > 1e-12


class TestCanonicalShape:
    def test_flow_output_is_canonical(self, rng):
        for _ in range(10):
            k_set = random_compact_set(rng)
            xi = half_on(k_set, rng)
            assert is_canonical(flow_to_canonical(xi, k_set), k_set)

    def test_fractional_gap_value_is_not_canonical(self):
        k_set = CompactSet(((-2.0, 0.0), (1.0, 2.0)))
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.0, 1.0), (-2.0, 0.0, 0.5), (0.0, 1.0, 0.3),
                  (1.0, 2.0, 0.5), (2.0, 3.0, 0.0)])
        assert not is_canonical(xi, k_set)

    def test_wrong_left_tail_is_not_canonical(self):
        k_set = CompactSet(((-2.0, 2.0),))
        xi = StepFunction.from_pieces(3.0, [(-3.0, -2.0, 0.0), (-2.0, 2.0, 0.5),
                                            (2.0, 3.0, 0.0)])
        assert not is_canonical(xi, k_set)

    def test_left_packed_gap_is_not_canonical(self):
        k_set = CompactSet(((-2.0, -0.5), (0.5, 2.0)))
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.0, 1.0), (-2.0, -0.5, 0.5), (-0.5, 0.0, 1.0),
                  (0.0, 0.5, 0.0), (0.5, 2.0, 0.5), (2.0, 3.0, 0.0)])
        assert not is_canonical(xi, k_set)

    def test_constant_half_is_not_canonical(self):
        k_set = CompactSet(((-2.0, 2.0),))
        assert not is_canonical(StepFunction.from_pieces(3.0, [(-3.0, 3.0, 0.5)]), k_set)

    @pytest.mark.parametrize("seed", range(30))
    def test_canonical_build_is_the_piece_build(self, seed):
        # the breakpoints written in order give the function that
        # `from_pieces` sorts and fills: with empty and full gaps, a jump
        # inside, and K reaching -R or R
        rng = np.random.default_rng(seed)
        k_set = random_compact_set(rng)
        masses = [float(rng.choice([0.0, d - c, rng.uniform(0.0, d - c)])) for c, d in k_set.gaps()]
        r = float(rng.choice([max(abs(k_set.min), abs(k_set.max)), 5.0]))
        pieces = [(-r, k_set.min, 1.0), (k_set.max, r, 0.0)]
        pieces += [(c, d, 0.5) for c, d in k_set.intervals]
        for g, (gc, gd) in zip(masses, k_set.gaps()):
            x = gd if g <= 0.0 else gc if g >= gd - gc else gd - g
            pieces += [(gc, x, 0.0), (x, gd, 1.0)]
        assert (canonical_krein_from_jumps(k_set, GapJumps(masses), r)
                == StepFunction.from_pieces(r, pieces))

    def test_jump_mass_extraction(self):
        k_set = CompactSet(((-2.0, -0.5), (0.5, 2.0)))
        xi = free_krein(3.0).with_value(-0.5, 0.5, 0.5)
        assert gap_jump_masses(xi, k_set) == pytest.approx((0.5,), abs=0)


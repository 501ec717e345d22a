import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reflectionless import (CompactSet, JacobiCoefficients, NumericError, Tail,
                            green_diag, operators, reflectionless_residual)

from conftest import banded_section_green, left_tail_m, periodic_bands

# Frozen two-sided value for the alternating-diagonal operator
# b = (..., +1, -1, +1, ...), a = 1 at site 0 and z = 3i, cross-checked
# against a 4000-site truncation during development.
G0_ALTERNATING_3I = 0.08451542547285168 + 0.253546276418555j


def random_operator(rng, max_span=4, kind=None):
    kind = kind or rng.choice(["free", "constant", "periodic"])
    if kind == "free":
        tail = Tail.free()
    elif kind == "constant":
        tail = Tail.constant(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1)))
    else:
        p = int(rng.integers(1, 4))
        tail = Tail.periodic(rng.uniform(0.5, 2.0, p), rng.uniform(-1, 1, p))
    n_lo = int(rng.integers(-max_span, 1))
    n_hi = int(rng.integers(0, max_span + 1))
    w = n_hi - n_lo + 1
    return JacobiCoefficients(n_lo, n_hi, tuple(rng.uniform(0.5, 2.0, w)),
                              tuple(rng.uniform(-1.0, 1.0, w)), tail)


TAIL_KINDS = st.sampled_from(["free", "constant", "periodic"])


def tail_matching_ends(rng, j):
    """j with up to two sites at each end of its window set to their in-phase
    tail value in a, in b or in both."""
    a, b, w, p = j.a_window.copy(), j.b_window.copy(), j.n_hi - j.n_lo + 1, j.tail.period
    left, right = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    for i in {*range(min(left, w)), *range(max(w - right, 0), w)}:
        which = int(rng.integers(0, 3))         # 0: a alone, 1: b alone, 2: both
        if which != 1:
            a[i] = j.tail.a_block[i % p]
        if which != 0:
            b[i] = j.tail.b_block[i % p]
    return JacobiCoefficients(j.n_lo, j.n_hi, a, b, j.tail)


def same_sites(j1, j2, sites):
    return all(j1.a(n) == j2.a(n) and j1.b(n) == j2.b(n) for n in sites)


class TestValidation:
    @pytest.mark.parametrize("a, b", [((1.0, math.nan), (0.0, 0.0)),
                                      ((1.0, 1.0), (math.nan, 0.0)),
                                      ((math.inf, 1.0), (0.0, 0.0))])
    def test_non_finite_coefficients_rejected(self, a, b):
        with pytest.raises(ValueError):
            JacobiCoefficients(0, 1, a, b)
        with pytest.raises(ValueError):
            Tail(a, b)


class TestRestrict:
    def test_restrict_off_period_keeps_the_phase(self):
        j = JacobiCoefficients.periodic([1.0, 0.5], [0.3, -0.3])
        r = j.restrict(0, 2)
        assert r.a(3) == 0.5 and r.b(3) == -0.3
        assert same_sites(r, j, range(-9, 10))

    @given(st.integers(0, 2**32 - 1), TAIL_KINDS, st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_widened_window_is_the_same_operator(self, seed, kind, left, right):
        j = random_operator(np.random.default_rng(seed), kind=kind)
        assert same_sites(j.restrict(j.n_lo - left, j.n_hi + right), j, range(-60, 61))

    @given(st.integers(0, 2**32 - 1), st.integers(-12, 12), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_any_window_of_a_periodic_operator(self, seed, lo, width):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 5))
        j = JacobiCoefficients.periodic(rng.uniform(0.5, 2.0, p), rng.uniform(-1, 1, p),
                                        n_lo=int(rng.integers(-5, 6)))
        assert same_sites(j.restrict(lo, lo + width), j, range(-60, 61))

    def test_json_periodic_tail_is_in_phase_with_the_window_start(self):
        data = {"n_lo": 3, "n_hi": 5, "a": [2.0, 2.0, 2.0], "b": [0.0, 0.0, 0.0],
                "tail": {"kind": "periodic", "a": [1.0, 0.5], "b": [0.3, -0.3]}}
        j = JacobiCoefficients.from_dict(data)
        assert [j.a(n) for n in (1, 2, 6, 7)] == [1.0, 0.5, 0.5, 1.0]
        r = j.restrict(2, 5)
        assert JacobiCoefficients.from_dict(r.to_dict()) == r
        assert same_sites(r, j, range(-9, 10))

    @pytest.mark.parametrize("j", [
        JacobiCoefficients.periodic([1.0], [0.0]).restrict(-1, 2),
        JacobiCoefficients.periodic([2.0], [0.5]).restrict(0, 3)])
    def test_restrict_keeps_free_and_constant_tails(self, j):
        for lo, hi in ((0, 1), (-5, 7), (4, 9)):
            assert j.restrict(lo, hi).tail == j.tail


class TestArrays:
    @given(st.integers(0, 2**32 - 1), TAIL_KINDS, st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_arrays_match_the_accessors(self, seed, kind, left, right):
        j = random_operator(np.random.default_rng(seed), kind=kind)
        lo, hi = j.n_lo - left, j.n_hi + right
        a, b = j.arrays(lo, hi)
        assert a.tolist() == [j.a(n) for n in range(lo, hi + 1)]
        assert b.tolist() == [j.b(n) for n in range(lo, hi + 1)]
        # windows entirely on either side of the explicit one
        for lo2, hi2 in ((lo - 7, lo - 1), (hi + 1, hi + 7)):
            a, b = j.arrays(lo2, hi2)
            assert a.tolist() == [j.a(n) for n in range(lo2, hi2 + 1)]
            assert b.tolist() == [j.b(n) for n in range(lo2, hi2 + 1)]


class TestGreenDiag:
    @pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(0.0, math.nan),
                                   complex(math.inf, 1.0)])
    def test_non_finite_energy_rejected(self, z):
        for method in ("recursion", "truncation"):
            with pytest.raises(ValueError, match="finite z"):
                green_diag(JacobiCoefficients.periodic([1.0], [0.0]), 0, z, method)

    def test_free_at_2i(self):
        g = green_diag(JacobiCoefficients.periodic([1.0], [0.0]), 0, 2j)
        assert g == pytest.approx(1j / (2.0 * math.sqrt(2.0)), abs=1e-13)

    def test_free_outside_spectrum_via_vertical_limit(self):
        j = JacobiCoefficients.periodic([1.0], [0.0])
        g1 = green_diag(j, 0, 5.0 + 1e-6j)
        g2 = green_diag(j, 0, 5.0 + 5e-7j)
        extrap = 2.0 * g2 - g1
        assert extrap.real == pytest.approx(-1.0 / math.sqrt(21.0), abs=1e-9)
        assert abs(extrap.imag) < 1e-9

    def test_alternating_diagonal_matches_truncation_oracle(self):
        j = JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0])
        g_rec = green_diag(j, 0, 3j)
        g_tr = green_diag(j, 0, 3j, method="truncation")
        assert abs(g_rec - g_tr) < 1e-8
        assert g_rec == pytest.approx(G0_ALTERNATING_3I, abs=1e-8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_methods_agree_above_half_unit(self, seed):
        rng = np.random.default_rng(seed)
        j = random_operator(rng)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3.0))
        n = int(rng.integers(-3, 4))
        g1 = green_diag(j, n, z)
        g2 = green_diag(j, n, z, method="truncation")
        assert abs(g1 - g2) < 1e-8

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_upper_half_plane_image(self, seed):
        rng = np.random.default_rng(seed)
        j = random_operator(rng)
        z = complex(rng.uniform(-4, 4), 10.0 ** rng.uniform(-4, 1))
        assert green_diag(j, int(rng.integers(-4, 5)), z).imag > 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shift_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        j = random_operator(rng)
        k = int(rng.integers(-5, 6))
        n = int(rng.integers(-3, 4))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        shifted = JacobiCoefficients(j.n_lo - k, j.n_hi - k, j.a_window, j.b_window, j.tail)
        assert abs(green_diag(shifted, n, z) - green_diag(j, n + k, z)) < 1e-10

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sweep_rows_equal_one_site_calls(self, seed, array_z):
        """Every row of a multi-site sweep equals the one-site value, with
        sites beyond the window on either side."""
        rng = np.random.default_rng(seed)
        j = random_operator(rng, max_span=8, kind="periodic")
        n0 = int(rng.integers(j.n_lo - 8, j.n_hi + 2))
        n1 = int(rng.integers(n0, j.n_hi + 9))
        eta = 10.0 ** rng.uniform(-6, 0)
        if array_z:
            z = rng.uniform(-3.0, 3.0, 5) + 1j * eta
            one = [operators._green_sites(j, n, n, z)[0] for n in range(n0, n1 + 1)]
        else:
            z = complex(rng.uniform(-3.0, 3.0), eta)
            one = [green_diag(j, n, z) for n in range(n0, n1 + 1)]
        rows = operators._green_sites(j, n0, n1, z)
        assert len(rows) == n1 - n0 + 1
        for row, ref in zip(rows, one):
            assert np.all(row == ref)

    @given(st.integers(0, 2**32 - 1), TAIL_KINDS, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_padded_windows_give_the_same_rows(self, seed, kind, array_z):
        """A window padded with tail values by `restrict` gives bitwise the
        same rows, also where end sites repeat the tail in a, in b or in both
        (and so may be trimmed); every row matches the truncation."""
        rng = np.random.default_rng(seed)
        j = tail_matching_ends(rng, random_operator(rng, kind=kind))
        padded = j.restrict(j.n_lo - int(rng.integers(0, 7)), j.n_hi + int(rng.integers(0, 7)))
        n0 = int(rng.integers(j.n_lo - 5, j.n_hi + 2))
        n1 = int(rng.integers(n0, j.n_hi + 6))
        z = rng.uniform(-3.0, 3.0, 3) + 1j * rng.uniform(0.5, 3.0, 3)
        z = z if array_z else complex(z[0])
        rows = operators._green_sites(j, n0, n1, z)
        for row, other in zip(rows, operators._green_sites(padded, n0, n1, z)):
            assert np.all(row == other)
        for n, row in zip(range(n0, n1 + 1), rows):
            for zk, g in zip(np.atleast_1d(z), np.atleast_1d(row)):
                assert abs(g - green_diag(j, n, complex(zk), method="truncation")) < 1e-8

    def test_scalar_kernels_return_python_complex(self):
        a, b, z = [1.0, 0.7, 1.2, 0.9, 1.1], [0.1, -0.2, 0.3, 0.0, -0.1], 0.3 + 0.2j
        assert all(type(m) is complex for m in operators._tail_m(a[:2], b[:2], 1, z))
        assert type(operators._section_m(a, b, 1, 2, 40, z)) is complex
        assert type(operators._section_m(a, b, 0, 1, 7, z)) is complex    # no walk

    def test_real_energies_rejected(self):
        with pytest.raises(ValueError):
            green_diag(JacobiCoefficients.periodic([1.0], [0.0]), 0, 3.0)

    def test_truncation_of_the_free_operator_at_tiny_eta(self):
        # the section has 421,890,573 sites; g_0(i eta) = i / sqrt(4 + eta^2)
        eta = 1e-6
        free = JacobiCoefficients.periodic([1.0], [0.0])
        g = green_diag(free, 0, 1j * eta, method="truncation")
        assert abs(g - 1j / math.sqrt(4.0 + eta * eta)) <= 1e-10

    @given(st.integers(0, 2**32 - 1), TAIL_KINDS)
    @settings(max_examples=40, deadline=None)
    def test_truncation_matches_the_banded_solve_of_its_section(self, seed, kind):
        # windows of 1-61 sites, sections of up to about 6e5 sites
        rng = np.random.default_rng(seed)
        j = random_operator(rng, max_span=30, kind=kind)
        n = int(rng.integers(j.n_lo - 5, j.n_hi + 6))
        z = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 0.5))
        ref = banded_section_green(j, n, z)
        assert abs(green_diag(j, n, z, method="truncation") - ref) <= 1e-12 * abs(ref)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_section_m_is_the_walk_of_a_short_section(self, seed):
        """Short sections, where the Dirichlet end still shows, against the
        plain walk over every site: a partial period at the far end, and
        sections shorter than their explicit part."""
        rng = np.random.default_rng(seed)
        p, e, count = int(rng.integers(1, 4)), int(rng.integers(0, 7)), int(rng.integers(1, 41))
        period = rng.uniform(0.5, 2.0, (2, p))
        a, b = np.hstack([rng.uniform(0.5, 2.0, (2, e)),
                          np.tile(period, count // p + 2)]).tolist()
        z = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 0.0))
        m = 0.0
        for k in range(count - 1, -1, -1):
            m = 1.0 / (b[k] - z - a[k] * a[k] * m)
        got = operators._section_m(a[:e + 2 * p], b[:e + 2 * p], e, p, count, z)
        assert abs(got - m) <= 1e-12 * abs(m)

    def test_truncation_solves_no_tail_fixed_point(self, monkeypatch):
        def boom(pairs, z):
            raise AssertionError("tail fixed point solved")

        monkeypatch.setattr(operators, "_tail_m", boom)
        j = JacobiCoefficients.periodic([1.0, 0.6, 1.3], [0.2, -0.4, 0.5]).restrict(-2, 4)
        for n in (-8, 1, 9):
            assert green_diag(j, n, 0.2 + 1e-3j, method="truncation").imag > 0


def residual_by_points(j, m_set, grid, sites):
    """The residual as one scalar `_green_sites` call per site and point, in
    Python complex arithmetic at real t."""
    return max((abs(operators._green_sites(j, n, n, complex(t))[0].real)
                for n in sites for t in m_set.interior_grid(grid)), default=0.0)


def max_abs_green(j, m_set, grid, sites=range(-2, 3)):
    """max |g_n(t + i0)| over the residual's sites and grid points."""
    g = operators._green_sites(j, min(sites), max(sites), m_set.interior_grid(grid) + 0j)
    return float(np.abs(g).max())


def tail_solve_size(tail, z):
    """Size, in units of the rounding unit, of the error of the tail's
    m-function at z, largest over the starting phases and both directions:
    m is the root of m10 m^2 + (m11 - m00) m - m01 = 0 for the one-period
    matrix M, here taken as ((m00 - m11) +- disc) / (2 m10).  Rounding that
    formula costs (|m00| + |m11| + |disc|) / |m10|, which is large where the
    numerator cancels (m near 0); `_tail_m`'s forms avoid that cancellation,
    so the term overestimates their rounding.  Rounding M's p
    products moves its entries by p |M| and the root by that times
    (1 + |m|)^2 / |disc|."""
    a_blk, b_blk, p = tail.a_block, tail.b_block, tail.period
    worst = 0.0
    for s in range(p):
        for pairs in ([(a_blk[(s + i) % p], b_blk[(s + i) % p]) for i in range(p)],
                      [(a_blk[(s - i - 1) % p], b_blk[(s - i) % p]) for i in range(p)]):
            (a, b), *rest = pairs
            m00, m01, m10, m11 = 0.0, 1.0, -a * a, b - z
            for a, b in rest:
                q, c = -a * a, b - z
                m00, m01, m10, m11 = m01 * q, m00 + m01 * c, m11 * q, m10 + m11 * c
            disc = ((m11 - m00) ** 2 + 4.0 * m01 * m10) ** 0.5
            m = max((((m00 - m11) + sign * disc) / (2.0 * m10) for sign in (1.0, -1.0)),
                    key=lambda r: abs(m10 * r + m11))
            size = max(abs(m00), abs(m01), abs(m10), abs(m11))
            worst = max(worst, (abs(m00) + abs(m11) + abs(disc)) / abs(m10)
                        + p * size * (1.0 + abs(m)) ** 2 / abs(disc))
    return worst


def residual_rounding_bound(j, m_set, grid, sites):
    """Largest difference that rounding alone can make between the
    vectorized residual and `residual_by_points`, to first order.

    Both paths run the same recursion on the same numbers and differ only in
    rounding (numpy's complex kernels against Python's complex arithmetic).
    Each value is g = 1/D, D = b - z - a^2 m_+ - a'^2 m_-, so |dg| = |g|^2 |dD|.
    The m come from walks of at most L steps (the window and the requested
    sites, plus one tail period on each side), closed by the tail solve.  A
    walk step is a complex multiply-add and a complex division, c u with
    c = 6 between them (u = 2^-53), on terms of D of size at most |D| + S,
    S = max|b| + 2 max a + max|t| the energy scale: L c u (|D| + S) in all.
    The tail solve adds a^2 c u Q to D, with Q = `tail_solve_size`.
    So |dg| <= c u (L (|g| + S |g|^2) + a^2 Q |g|^2).  Its real part and the
    max over sites and points add nothing, and the two paths round
    independently: a factor 2.  With G the largest |g|, the bound is
    2 c u (L (G + S G^2) + A^2 Q G^2), 2 c = 12, with A = max a."""
    energies = [complex(t) for t in m_set.interior_grid(grid)]
    g = max(abs(operators._green_sites(j, n, n, z)[0]) for n in sites for z in energies)
    tail = max(tail_solve_size(j.tail, z) for z in energies)
    walk = max(j.n_hi, *sites) - min(j.n_lo, *sites) + 1 + 2 * j.tail.period
    a_max = max(*j.a_window, *j.tail.a_block)
    scale = (max(abs(b) for b in (*j.b_window, *j.tail.b_block)) + 2.0 * a_max
             + max(abs(m_set.min), abs(m_set.max)))
    return 12.0 * 2.0 ** -53 * (walk * (g + scale * g * g) + a_max ** 2 * tail * g * g)


FREE = JacobiCoefficients.periodic([1.0], [0.0])


class TestReflectionlessResidual:
    @pytest.mark.parametrize("j, m_set", [
        (JacobiCoefficients.periodic([1.0], [0.0]), CompactSet(((-2.0, 2.0),))),
        (JacobiCoefficients.periodic([1.0], [0.0]), CompactSet(((3.0, 4.0),))),
        (JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0]).restrict(-3, 7),
         CompactSet(((-math.sqrt(5.0), -1.0), (1.0, math.sqrt(5.0))))),
        (JacobiCoefficients.periodic([1.0, 0.6, 1.3], [0.2, -0.4, 0.5]).restrict(0, 10),
         CompactSet(((-2.5, -0.5), (0.0, 2.5)))),
    ])
    def test_vectorized_matches_scalar_loop(self, j, m_set):
        ref = residual_by_points(j, m_set, 25, range(-2, 3))
        assert abs(reflectionless_residual(j, m_set, grid=25) - ref) <= 1e-12

    @given(st.integers(0, 2**32 - 1), TAIL_KINDS)
    @settings(max_examples=30, deadline=None)
    def test_vectorized_matches_scalar_loop_on_random_operators(self, seed, kind):
        rng = np.random.default_rng(seed)
        j = random_operator(rng, kind=kind)
        c = float(rng.uniform(-3.0, 2.0))
        m_set = CompactSet(((c, c + float(rng.uniform(0.1, 1.0))),))
        sites = range(int(rng.integers(-8, 1)), int(rng.integers(1, 9)))
        ref = residual_by_points(j, m_set, 6, sites)
        res = reflectionless_residual(j, m_set, grid=6, sites=sites)
        assert abs(res - ref) <= residual_rounding_bound(j, m_set, 6, sites)

    def test_non_finite_green_function_raises(self, monkeypatch):
        def one_nan(j, n0, n1, z):
            g = np.full(z.shape, 0.5j)
            g[3] = np.nan
            return [g] * (n1 - n0 + 1)

        monkeypatch.setattr(operators, "_green_sites", one_nan)
        with pytest.raises(NumericError):
            reflectionless_residual(JacobiCoefficients.periodic([1.0], [0.0]),
                                    CompactSet(((-2.0, 2.0),)), grid=10)

    def test_half_line_eigenvalue_reads_finite_without_a_warning(self):
        # b_0 = 2 on the free line: u_n = 2^-n solves J u = 2.5 u on sites >= 0, so the
        # right walk for g_{-1} divides by exactly zero at t = 2.5: m_+(0) = m_-(0) is
        # infinite, m_+(-1) = m_-(1) = 0, and with the free m = -1/2,
        # g_0 = 1/(2 - 5/2 + 1) = 2, g_{+-1} = 0 and g_{+-2} = 1/(-5/2 + 1/2)
        j = JacobiCoefficients(0, 0, [1.0], [2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reflectionless_residual(j, CompactSet(((2.0, 3.0),)), grid=1) == 2.0
            g = operators._green_sites(j, -2, 2, np.array([2.5 + 0j]))[:, 0]
        assert g.tolist() == [-0.5, 0.0, 2.0, 0.0, -0.5]

    def test_eigenvalue_raises_without_a_warning(self):
        # b_0 = 3/2 on the free line: u_n = 2^-|n| solves J u = 2.5 u, a pole of every g_n
        j = JacobiCoefficients(0, 0, [1.0], [1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite"):
                reflectionless_residual(j, CompactSet(((2.0, 3.0),)), grid=1)

    @pytest.mark.parametrize("j", [FREE, JacobiCoefficients(0, 0, [1.0], [0.3])],
                             ids=["free", "window"])
    def test_tail_band_edge_raises(self, j):
        # the grid's one point is t = 2, the edge of the free tail's band
        with pytest.raises(NumericError, match="band edge"):
            reflectionless_residual(j, CompactSet(((1.5, 2.5),)), grid=1)

    def test_non_integer_grid_refused(self):
        # a ValueError for the argument, not a NumericError for the band end t = 2 that 2.5
        # points per band would reach
        with pytest.raises(ValueError, match="integer"):
            reflectionless_residual(FREE, CompactSet(((-2.0, 2.0),)), grid=2.5)

    def test_tail_m_refuses_a_band_edge(self):
        for z in (2.0 + 0j, np.array([0.0, 2.0, 3.0]) + 0j):
            with pytest.raises(NumericError, match="band edge"):
                operators._tail_m([1.0], [0.0], 0, z)

    def test_tail_m_on_the_real_axis(self):
        # free tail: m(t + i0) = (-t +- sqrt(t^2 - 4)) / 2, the root with |m| < 1 in a
        # gap and the one with Im m > 0 on the band
        t = np.array([-3.0, -1.5, 0.0, 0.7, 1.99, 2.5])
        root = np.sqrt((t * t - 4.0).astype(complex))      # i sqrt(4 - t^2) on the band
        m = (-t + np.where(np.abs(t) > 2.0, np.sign(t), 1.0) * root) / 2.0
        got, left = operators._tail_m([1.0], [0.0], 0, t + 0j)
        assert np.all(np.abs(left - m) <= 1e-15 * np.abs(m))    # the free line is symmetric
        assert np.all(np.abs(got - m) <= 1e-15 * np.abs(m))
        assert np.all(got[1:5].imag > 0) and np.all(got[[0, 5]].imag == 0)
        for tk, gk in zip(t, got):
            scalar = operators._tail_m([1.0], [0.0], 0, complex(tk))[0]
            assert type(scalar) is complex and scalar == pytest.approx(gk, rel=1e-15, abs=0)

    @pytest.mark.parametrize("sites", [range(0, 1), range(-2, 3, 2)])
    def test_tail_m_at_a_dirichlet_point_of_the_period(self, sites):
        # at t = 1/2 the right tail's m_1 = -3/4 solves m = 1/(-1 + 1/(4m)) and the
        # left tail's m_{-1} = 0 solves m = m/(4 - m); one period's m10 vanishes there,
        # putting the other fixed point at infinity.  So g_0 = g_{+-2} = 1/(3/4)
        j = JacobiCoefficients.periodic([1.0, 0.5], [0.5, -0.5])
        res = reflectionless_residual(j, CompactSet(((0.0, 1.0),)), grid=1, sites=sites)
        assert res == pytest.approx(4.0 / 3.0, rel=1e-12, abs=0)
        # the tail solve itself: m_+(0) = 4/3 and m_-(-1) = m10/(a^2 (-(h + s))) = 0, on
        # both paths (the array path also forms the unpicked root -(h + s)/m10, as the
        # residual does under np.errstate)
        for z in (0.5 + 0j, np.array([0.5 + 0j])):
            with np.errstate(all="ignore"):
                m_plus, m_minus = operators._tail_m([1.0, 0.5], [0.5, -0.5], 0, z)
            assert m_plus == pytest.approx(4.0 / 3.0, rel=1e-15, abs=0) and m_minus == 0.0

    @pytest.mark.parametrize("sites", [range(0, 2), range(1, 2), range(-3, 4)])
    def test_residual_through_an_infinite_left_m_at_a_dirichlet_point(self, sites):
        # at t = 1/2, m_-(-1) = 0 (above) and b_0 = t, so m_-(0) is infinite, m_-(1) = 0 and
        # g_1 = 1/(b_1 - t - a_1^2 m_+(2) - a_0^2 m_-(0)) = 0; odd sites read 0, even 4/3
        j = JacobiCoefficients.periodic([1.0, 0.5], [0.5, -0.5])
        res = reflectionless_residual(j, CompactSet(((0.0, 1.0),)), grid=1, sites=sites)
        assert res == (0.0 if sites == range(1, 2) else pytest.approx(4.0 / 3.0, rel=1e-12, abs=0))
        for z in (0.5 + 0j, np.array([0.5 + 0j])):
            g = np.ravel(operators._green_sites(j, 0, 1, z))
            assert g[0] == pytest.approx(4.0 / 3.0, rel=1e-12, abs=0) and g[1] == 0.0
        # the tail solve from site 1 (d = 1) in real arithmetic: m_-(0) is infinite
        with np.errstate(all="ignore"):
            m_plus, m_minus = operators._tail_m([1.0, 0.5], [0.5, -0.5], 1, np.array([0.5]))
        assert m_plus == pytest.approx(4.0 / 3.0, rel=1e-15, abs=0) and m_minus == np.inf

    @pytest.mark.parametrize("sites, value", [(range(0, 1), 20 / 11), ([2, -2], 16 / 11),
                                              ((1,), 3 / 11), ([1, 0, 2, -2], 20 / 11)])
    def test_residual_where_the_left_m_at_the_tail_period_start_is_infinite(self, sites, value):
        # the right period from e = 1 reads a = (0.5, 1), b = (-0.5, 0.5); at t = 1/2 its m01
        # vanishes (t = b_2), m_+(1) = -3/4, and the other fixed point is 0: m_-(0) of the
        # periodic operator is infinite and m_-(1) = 0, which is the left tail's m_-(-1)
        # here.  So g_0 = 1/(0.3 - 1/2 + 3/4) = 20/11, g_1 = 3/11 and g_{+-2} = 16/11
        j = JacobiCoefficients(0, 0, [1.0], [0.3], Tail.periodic((1.0, 0.5), (0.5, -0.5)))
        res = reflectionless_residual(j, CompactSet(((0.0, 1.0),)), grid=1, sites=sites)
        assert res == pytest.approx(value, rel=1e-12, abs=0)
        for z in (0.5 + 0j, np.array([0.5 + 0j])):
            with np.errstate(all="ignore"):
                m_plus, m_minus = operators._tail_m([0.5, 1.0], [-0.5, 0.5], 1, z)
            assert m_plus == pytest.approx(-0.75, rel=1e-15, abs=0) and m_minus == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.sampled_from(["complex", "band", "gap", "m10 = 0", "m01 = 0"]))
    @settings(max_examples=250, deadline=None)
    def test_left_m_from_the_second_fixed_point(self, seed, p, where):
        """The left tail's m from `_tail_m`, on the scalar and the array path, against the
        reflected period's own solve (`conftest.left_tail_m`), at random phases d: at Im z
        in 1e-6..3, at real t inside a band or a gap (1-99% of its width), and at a
        Dirichlet point of the period, where one fixed point is at 0 or infinity: an
        eigenvalue of the block of sites e..e+p-2, where m10 vanishes, with d <= p - 2, or
        of the block e+1..e+p-1, where m01 does, with d >= 1 (the left m at the one phase
        left out, e + p - 2 or e - 1, is infinite).
        Values near 0 or infinity are compared by their distance on the Riemann sphere,
        their relative difference where |m| is near 1.  Near a band edge both lose digits,
        so Dirichlet points within 1e-4 of one are skipped, as are draws where m_+(e) or the
        left m is exactly infinite (a scalar path divides by 0 there)."""
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.5, 2.0, p).tolist(), rng.uniform(-1.0, 1.0, p).tolist()
        bands = periodic_bands(a, b)
        edges = [bands[0][0] - 2.0, *np.ravel(bands).tolist(), bands[-1][1] + 2.0]
        d = int(rng.integers(0, p))
        if where == "complex":
            z = complex(rng.uniform(edges[0], edges[-1]), 10.0 ** rng.uniform(-6.0, math.log10(3.0)))
        elif where in ("m10 = 0", "m01 = 0"):
            assume(p > 1)
            k = int(where == "m01 = 0")     # the block of sites e + k..e + k + p - 2
            off = a[k:k + p - 2]
            block = np.diag(b[k:k + p - 1]) + np.diag(off, 1) + np.diag(off, -1)
            z, d = complex(rng.choice(np.linalg.eigvalsh(block))), int(rng.integers(k, p - 1 + k))
            assume(min(abs(z.real - x) for x in edges[1:-1]) > 1e-4)
        else:
            spans = list(zip(edges[1::2], edges[2::2]) if where == "band" else zip(edges[::2], edges[1::2]))
            c, w = spans[int(rng.integers(0, len(spans)))]
            z = complex(c + (w - c) * rng.uniform(0.01, 0.99))
        try:
            got, ref = operators._tail_m(a, b, d, z)[1], left_tail_m(a, b, d, z)
        except ZeroDivisionError:       # m_+(e) or the left m exactly infinite
            assume(False)
        with np.errstate(all="ignore"):     # the array path forms the unpicked root too
            got_array = operators._tail_m(a, b, d, np.array([z]))[1][0]
        for x in (got, got_array):
            assert abs(x - ref) <= 1e-12 * math.sqrt((1.0 + abs(x) ** 2) * (1.0 + abs(ref) ** 2))

    @pytest.mark.parametrize("sites", [range(-4, 5, 2), range(3, -4, -3), range(0)],
                             ids=["step-2", "descending", "empty"])
    def test_site_ranges_match_scalar_loop(self, sites):
        j = JacobiCoefficients.periodic([1.0, 0.6, 1.3], [0.2, -0.4, 0.5]).restrict(-1, 5)
        m_set = CompactSet(((-2.5, -0.5), (0.0, 2.5)))
        ref = residual_by_points(j, m_set, 8, sites)
        res = reflectionless_residual(j, m_set, grid=8, sites=sites)
        assert abs(res - ref) <= 1e-12 * max(1.0, ref)
        assert (res == 0.0) == (len(sites) == 0)

    @staticmethod
    def count_tail_solves(monkeypatch):
        calls = []
        tail_m = operators._tail_m
        monkeypatch.setattr(operators, "_tail_m", lambda *args: calls.append(args) or tail_m(*args))
        return calls

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_default_sites_solve_one_tail_per_side(self, monkeypatch, p):
        """One tail solve per call serves both sides: one per site and side would be
        10 here, one per phase and side 2p."""
        calls = self.count_tail_solves(monkeypatch)
        j = JacobiCoefficients.periodic([1.0, 0.6, 1.3][:p], [0.2, -0.4, 0.5][:p]).restrict(0, 7)
        reflectionless_residual(j, CompactSet(((-0.5, 0.5),)), grid=8)
        assert len(calls) == 1
        for n in (-3, 0, 9):
            green_diag(j, n, 0.2 + 1e-3j)
        assert len(calls) == 4

    def test_mirror_symmetric_period_shares_its_solve(self, monkeypatch):
        # b constant: the pairs (a_s, b_s) up from an even s equal (a_{s-1}, b_s) down from s - 1
        calls = self.count_tail_solves(monkeypatch)
        j = JacobiCoefficients.periodic([1.0, 0.6], [0.2, 0.2]).restrict(0, 5)
        reflectionless_residual(j, CompactSet(((-0.5, 0.5),)), grid=8)
        assert len(calls) == 1

    def test_no_per_site_accessor_on_the_green_paths(self, monkeypatch):
        def boom(self, n):
            raise AssertionError("per-site accessor called")

        j = JacobiCoefficients.periodic([1.0, 0.5], [0.3, -0.3]).restrict(-2, 4)
        monkeypatch.setattr(JacobiCoefficients, "a", boom)
        monkeypatch.setattr(JacobiCoefficients, "b", boom)
        assert green_diag(j, 1, 0.2 + 0.5j, method="truncation").imag > 0
        assert green_diag(j, 1, 0.2 + 0.5j).imag > 0
        assert reflectionless_residual(j, CompactSet(((-1.0, 1.0),)), grid=5) >= 0.0

    def test_free_operator_on_its_band(self):
        m_set = CompactSet(((-2.0, 2.0),))
        assert reflectionless_residual(FREE, m_set) <= 1e-12 * max_abs_green(FREE, m_set, 100)
        # the boundary value itself: g_0(t + i0) = i / sqrt(4 - t^2), above the axis
        t = m_set.interior_grid(100)
        g = operators._green_sites(FREE, 0, 0, t + 0j)[0]
        assert np.all(np.abs(g - 1j / np.sqrt(4.0 - t * t)) <= 1e-12 * np.abs(g))

    def test_alternating_diagonal_on_its_bands(self):
        # bands of the two-periodic diagonal +-1: |t^2 - 3| <= 2
        j = JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0])
        bands = CompactSet(((-math.sqrt(5.0), -1.0), (1.0, math.sqrt(5.0))))
        assert reflectionless_residual(j, bands, grid=60) <= 1e-12 * max_abs_green(j, bands, 60)

    def test_three_periodic_operator_on_its_bands(self):
        a, b = [0.8, 1.3, 1.1], [0.5, -0.7, 0.2]
        j = JacobiCoefficients.periodic(a, b).restrict(-4, 6)
        bands = CompactSet(periodic_bands(a, b, inset=0.01))
        assert reflectionless_residual(j, bands) <= 1e-12 * max_abs_green(j, bands, 100)
        g = np.array(operators._green_sites(j, -2, 2, bands.interior_grid(100) + 0j))
        assert np.all(g.imag > 0)       # on the spectrum, the Herglotz boundary values

    def test_free_operator_off_band_negative_control(self):
        m_set = CompactSet(((3.0, 4.0),))
        res = reflectionless_residual(FREE, m_set, grid=50)
        # Re g_n = -1/sqrt(t^2 - 4) at every site, largest at the grid point nearest 3
        t = m_set.interior_grid(50)
        expected = float(np.max(1.0 / np.sqrt(t * t - 4.0)))
        assert abs(res - expected) <= 1e-12 * expected


class TestSerialization:
    def test_json_roundtrip_all_tails(self, rng):
        for _ in range(10):
            j = random_operator(rng)
            back = JacobiCoefficients.from_dict(j.to_dict())
            assert back == j
        j = JacobiCoefficients(-1, 1, (1.0, 2.0, 1.5), (0.0, 0.3, -0.2),
                               Tail.periodic([0.7], [0.1]))
        assert j.to_dict()["tail"] == {"kind": "constant", "a": 0.7, "b": 0.1}
        assert JacobiCoefficients.from_dict(j.to_dict()) == j

    def test_one_period_tails_have_one_encoding(self):
        assert Tail.periodic([1.0], [0.0]) == Tail.free()
        assert Tail.periodic([1.0], [0.0]).to_dict() == {"kind": "free"}
        j1 = JacobiCoefficients.periodic([2.0], [0.5])
        j2 = JacobiCoefficients(0, 0, (2.0,), (0.5,), Tail.constant(2.0, 0.5))
        assert j1 == j2 and hash(j1) == hash(j2)

    @pytest.mark.parametrize("changes", [
        {"tail": {"kind": "bogus", "a": [2.0], "b": [0.5]}},
        {"tail": {"kind": ["periodic"], "a": [2.0], "b": [0.5]}},
        {"n_lo": 0.7, "n_hi": 2.9}, {"n_lo": 0.0}, {"n_lo": False}, {"n_lo": "0"},
    ], ids=["unknown-kind", "list-kind", "fractional", "float", "bool", "string"])
    def test_malformed_json_refused(self, changes):
        data = JacobiCoefficients(0, 2, (1.0, 2.0, 1.5), (0.0, 0.3, -0.2)).to_dict()
        with pytest.raises(ValueError):
            JacobiCoefficients.from_dict({**data, **changes})

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            JacobiCoefficients(0, 0, (0.0,), (0.0,))

    def test_window_consistency_enforced(self):
        with pytest.raises(ValueError):
            JacobiCoefficients(2, 1, (), ())


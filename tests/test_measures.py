import math
import re
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from reflectionless import (AcPiece, CompactSet, FSelector, GapJumps, HerglotzRep,
                            NumericError, SpectralMeasure, StepFunction,
                            canonical_krein_from_jumps, free_krein,
                            half_line_measure, herglotz_eval, reconstruct_coefficients,
                            reconstruction_report, stieltjes_invert, total_mass)
from reflectionless import measures
from reflectionless.krein import _edge_factors
from reflectionless.experiments import random_admissible_krein, random_f_selector
from reflectionless.measures import _theta_rule

from conftest import abs_boundary, per_piece_log_abs, value_at

BAND = CompactSet(((-2.0, 2.0),))

# Step function with bands [-2,0] u [1,2] at 1/2, a full up-jump at 0.7
# inside the gap, and tails 1/0 on [-3, 3].
XI_WITH_ATOM = StepFunction.from_pieces(
    3.0, [(-3.0, -2.0, 1.0), (-2.0, 0.0, 0.5), (0.0, 0.7, 0.0),
          (0.7, 1.0, 1.0), (1.0, 2.0, 0.5), (2.0, 3.0, 0.0)])

# residue at 0.7: (0.7+3) * (1/3.7) * sqrt(2.7 * 0.7 * 0.3 * 1.3), frozen
ATOM_MASS_07 = 0.8585452812752512


def semicircle_rho():
    return stieltjes_invert(HerglotzRep(free_krein(2.0)))


def catalan_moments(k_max):
    """The exact moments of the normalized semicircle sqrt(4 - t^2) / (2 pi):
    the Catalan numbers at even orders, 0 at odd."""
    return np.array([0.0 if k % 2 else math.comb(k, k // 2) / (k // 2 + 1)
                     for k in range(k_max + 1)])


def quad_moments(measure, k_max):
    """m_k = integral t^k dm for k <= k_max: atoms exactly, ac pieces by
    scipy's adaptive quadrature of the closed-form density, which shares
    nothing with the library's rules."""
    out = np.array([sum(m * x**k for x, m in measure.atoms) for k in range(k_max + 1)])
    for p in measure.ac_pieces:
        v = value_at(measure.rep.xi, 0.5 * (p.lo + p.hi))
        scale = p.multiplier * math.sin(math.pi * v) / math.pi
        out += [quad(lambda t: t**k * scale * abs_boundary(measure.rep, t), p.lo, p.hi,
                     limit=200, epsabs=1e-13, epsrel=1e-13)[0] for k in range(k_max + 1)]
    return out


def rule_moments(t, w, k_max):
    return np.array([np.sum(w * t**k) for k in range(k_max + 1)])


def per_piece_rule(measure, piece):
    """The mass rule of one ac piece by the per-piece loop: (n, nodes t,
    Fejer weight x jacobian x density, mass) at the first n = 64, 128, ...
    where two successive masses agree to 1e-12 * max(1, mass), each density
    summed one breakpoint at a time.  The reference for the lockstep
    `_mass_rules`."""
    half = 0.5 * (piece.hi - piece.lo)
    v = value_at(measure.rep.xi, 0.5 * (piece.lo + piece.hi))
    prev, n = None, 64
    while True:
        th, w, *_ = measures._theta_rule(n)
        log_h = per_piece_log_abs(measure.rep.xi, piece.lo, piece.hi, th)
        dens = piece.multiplier * np.exp(log_h) * math.sin(math.pi * v) / math.pi
        wd = w * (half * np.cos(th)) * dens
        cur = wd.sum()
        if prev is not None and abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
            return n, 0.5 * (piece.lo + piece.hi) + half * np.sin(th), wd, cur
        if n >= 8192:
            raise NumericError(
                f"quadrature on ({piece.lo}, {piece.hi}) did not reach tol=1e-12 with {n} nodes")
        prev = cur
        n *= 2


def random_half_line(rng, n_pieces):
    """A half-line measure with n_pieces ac pieces: random bands, a random
    admissible Krein function and a random selector, drawn until the count
    fits."""
    while True:
        n_bands = int(rng.integers(1, min(n_pieces, 4) + 1))
        edges = np.sort(rng.uniform(-3.0, 3.0, 2 * n_bands))
        if np.min(np.diff(edges)) < 0.1:
            continue
        k_set = CompactSet(tuple(zip(edges[::2].tolist(), edges[1::2].tolist())))
        rho = stieltjes_invert(HerglotzRep(random_admissible_krein(rng, k_set)))
        nu = half_line_measure(rho, k_set, random_f_selector(rng, rho, k_set))
        if len(nu.ac_pieces) == n_pieces:
            return nu


def mass_rule_support(nu):
    """Nodes and weights of the rules at which each ac piece's mass converged."""
    return tuple(np.concatenate(part) for part in zip(*(rule[1:3] for rule in nu._mass_rules)))


def flat_rule(nu, n):
    """The n-node rule in theta on every ac piece, laid out as one flat
    array as `inverse._certified` lays it out."""
    count = len(nu.ac_pieces)
    return nu._rule(np.repeat(np.arange(count), n),
                    *(np.tile(a, count) for a in _theta_rule(n)))


def arc_points(piece, t_lo, t_hi, n):
    """Angles theta whose points t = mid + half*sin(theta) on the piece run
    evenly over [t_lo, t_hi], and those points."""
    mid, half = 0.5 * (piece.lo + piece.hi), 0.5 * (piece.hi - piece.lo)
    theta = np.arcsin((np.linspace(t_lo, t_hi, n) - mid) / half)
    return theta, mid + half * np.sin(theta)


class TestStieltjesInversion:
    def test_free_density_is_semicircle(self):
        rho = semicircle_rho()
        assert rho.atoms == ()
        assert len(rho.ac_pieces) == 1
        theta, t = arc_points(rho.ac_pieces[0], -1.9, 1.9, 21)
        dens = rho.density_on_arc(0, theta)
        assert np.allclose(dens, np.sqrt(4.0 - t**2) / math.pi, atol=1e-13)

    def test_full_value_pieces_carry_no_ac_mass(self):
        xi = StepFunction.from_pieces(3.0, [(-3.0, -1.0, 1.0), (-1.0, 3.0, 0.5)])
        rho = stieltjes_invert(HerglotzRep(xi))
        assert all(p.lo >= -1.0 for p in rho.ac_pieces)

    def test_atom_mass_closed_form(self):
        rho = stieltjes_invert(HerglotzRep(XI_WITH_ATOM))
        assert len(rho.atoms) == 1
        pos, mass = rho.atoms[0]
        assert pos == 0.7
        assert mass == pytest.approx(ATOM_MASS_07, abs=1e-15)
        assert mass == pytest.approx(
            math.sqrt(2.7 * 0.7 * 0.3 * 1.3), abs=1e-14)

    def test_atom_mass_against_vertical_residue_limit(self):
        rep = HerglotzRep(XI_WITH_ATOM)
        pos, mass = stieltjes_invert(rep).atoms[0]

        def smeared(eta):
            return eta * herglotz_eval(rep, pos + 1j * eta).imag

        v1, v2 = smeared(1e-4), smeared(5e-5)
        extrap = (4.0 * v2 - v1) / 3.0
        assert extrap == pytest.approx(mass, abs=1e-6)

    def test_weak_star_consistency_with_smeared_transform(self):
        # integral of phi against the measure == (1/pi) integral of
        # phi(t) Im H(t + i eta) dt as eta -> 0, for polynomial phi.
        # The smearing error carries eta and eta^{3/2} terms (the latter
        # from the square-root band edges), so extrapolate on that basis.
        rep = HerglotzRep(XI_WITH_ATOM)
        rho = stieltjes_invert(rep)
        exact = quad_moments(rho, 4)

        def smeared_moment(k, eta):
            def f(t):
                return t**k * herglotz_eval(rep, t + 1j * eta).imag / math.pi
            pts = [-2.0, 0.0, 0.7, 1.0, 2.0]
            val, _ = quad(f, -8.0, 8.0, points=pts, limit=600,
                          epsabs=1e-11, epsrel=1e-11)
            return val

        def extrapolate(k, eta):
            v1, v2, v3 = (smeared_moment(k, e) for e in (eta, eta / 2, eta / 4))
            s = 2.0 ** -1.5
            d1, d2 = v1 - v2, v2 - v3
            b_term = (d1 - 2.0 * d2) / ((1.0 - s) * (1.0 - 2.0 * s))
            a_term = 2.0 * (d1 - b_term * (1.0 - s))
            return v3 - a_term / 4.0 - b_term * s * s

        for k in range(5):
            assert extrapolate(k, 1e-3) == pytest.approx(exact[k], abs=1e-5)


class TestHalfLineMeasure:
    def test_free_gives_the_normalized_semicircle(self):
        nu0 = half_line_measure(semicircle_rho(), BAND)
        theta, t = arc_points(nu0.ac_pieces[0], -1.9, 1.9, 11)
        dens = nu0.density_on_arc(0, theta)
        assert np.allclose(dens, np.sqrt(4.0 - t**2) / (2.0 * math.pi), atol=1e-13)
        assert total_mass(nu0) == pytest.approx(1.0, abs=1e-11)

    def test_zero_selector_keeps_only_the_band_part(self):
        k_set = CompactSet(((-2.0, 0.0), (1.0, 2.0)))
        rho = stieltjes_invert(HerglotzRep(XI_WITH_ATOM))
        nu = half_line_measure(rho, k_set)
        assert nu.atoms == ()
        assert all(any(c <= p.lo and p.hi <= d for c, d in k_set.intervals)
                   for p in nu.ac_pieces)
        assert all(p.multiplier == 0.5 for p in nu.ac_pieces)

    def test_atom_weight_scales_linearly(self):
        k_set = CompactSet(((-2.0, 0.0), (1.0, 2.0)))
        rho = stieltjes_invert(HerglotzRep(XI_WITH_ATOM))
        f = FSelector(atom_weights=((0.7, 0.5),))
        nu = half_line_measure(rho, k_set, f)
        assert nu.atoms == ((0.7, pytest.approx(ATOM_MASS_07 / 2.0, abs=1e-15)),)

    @staticmethod
    def _scaled(lam):
        """nu at scale lam: xi = 1 left of K = [-2 lam, 2 lam], atoms of rho at
        2.5 lam and 3.0 lam, and an f weight at 3.0 lam only."""
        xi = StepFunction.from_pieces(4.0 * lam, [
            (-4.0 * lam, -2.0 * lam, 1.0), (-2.0 * lam, 2.0 * lam, 0.5),
            (2.0 * lam, 2.5 * lam, 0.0), (2.5 * lam, 2.6 * lam, 1.0), (2.6 * lam, 3.0 * lam, 0.0),
            (3.0 * lam, 3.1 * lam, 1.0), (3.1 * lam, 4.0 * lam, 0.0)])
        return half_line_measure(stieltjes_invert(HerglotzRep(xi)),
                                 CompactSet(((-2.0 * lam, 2.0 * lam),)),
                                 FSelector(atom_weights=((3.0 * lam, 1.0),)))

    def test_atom_weights_match_at_any_scale(self):
        # at lam = 2^-32 the atoms at 2.5 lam and 3.0 lam are 1.2e-10 apart;
        # the weight at 3.0 lam must still reach that atom only, so nu is the
        # image of nu at lam = 1 (positions times lam, masses times lam^2)
        # and a_n / lam matches to the documented 1e-12
        lam = 2.0 ** -32
        nu1, nu = self._scaled(1.0), self._scaled(lam)
        assert [x for x, _ in nu1.atoms] == [3.0]
        assert [x / lam for x, _ in nu.atoms] == [3.0]
        assert nu.atoms[0][1] / lam**2 == pytest.approx(nu1.atoms[0][1], rel=1e-12, abs=0)
        rec1, rec = reconstruct_coefficients(nu1, 6), reconstruct_coefficients(nu, 6)
        for n in range(7):
            assert rec.a(n) / lam == pytest.approx(rec1.a(n), rel=1e-12, abs=0), n

    def test_weight_where_rho_has_no_atom_rejected(self):
        rho = stieltjes_invert(HerglotzRep(free_krein(4.0)))
        with pytest.raises(ValueError, match=r"weight at \[3\.0\], where rho has no atom"):
            half_line_measure(rho, BAND, FSelector(atom_weights=((3.0, 1.0),)))

    def test_set_past_the_domain_rejected(self):
        # xi = 1/2 on [-2, 3] with R = 3: K = [-2, 4] reaches past R, as
        # flow_to_canonical also refuses
        xi = StepFunction.from_pieces(3.0, [(-3.0, -2.0, 1.0), (-2.0, 3.0, 0.5)])
        with pytest.raises(ValueError, match="domain"):
            half_line_measure(stieltjes_invert(HerglotzRep(xi)), CompactSet(((-2.0, 4.0),)))

    def test_selector_on_band_interior_rejected(self):
        f = FSelector(intervals=((-0.5, 0.5, 1.0),))
        with pytest.raises(ValueError):
            half_line_measure(semicircle_rho(), BAND, f)

    def test_selector_adds_only_nonnegative_mass(self, rng):
        k_set = CompactSet(((-2.0, 0.0), (1.0, 2.0)))
        rho = stieltjes_invert(HerglotzRep(XI_WITH_ATOM))
        base = total_mass(half_line_measure(rho, k_set))
        for _ in range(10):
            from reflectionless.experiments import random_f_selector
            f = random_f_selector(rng, rho, k_set)
            assert total_mass(half_line_measure(rho, k_set, f)) >= base - 1e-12

    def test_band_density_factorizes_through_the_correction(self):
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.4, 0.0), (-2.4, -2.0, 1.0), (-2.0, 2.0, 0.5),
                  (2.0, 2.7, 1.0), (2.7, 3.0, 0.0)])
        rep = HerglotzRep(xi)
        nu = half_line_measure(stieltjes_invert(rep), BAND)
        piece = [p for p in nu.ac_pieces if p.lo == -2.0][0]
        theta, t = arc_points(piece, -1.9, 1.9, 41)
        dens = nu.density_on_arc(nu.ac_pieces.index(piece), theta)
        reference = np.sqrt(4.0 - t**2) / (2.0 * math.pi)
        # |H| / |H_0| in closed form: the 0 on (-3, -2.4) and the 1 on (2, 2.7)
        h = (3.0 + t) / (2.4 + t) * (2.7 - t) / (2.0 - t)
        assert np.max(np.abs(dens - h * reference)) < 1e-10


ONE_ULP_PIECES = [(-1.0, math.nextafter(-1.0, 0.0)),
                  (1.0 + 2.0**-52, 1.0 + 2.0**-51)]


class TestOneUlpPieces:
    """Pieces one ulp wide, whose midpoints round onto an edge (the left
    one, and by ties-to-even the right one): a piece's xi value is read by
    index and a half-line sub-piece is placed by its endpoints, so none of
    them is refused or dropped."""

    @staticmethod
    def xi(lo, hi):
        # xi = 1/2 on (lo, hi) between the values 1 and 0: |H(t)| is
        # sqrt((t - lo)(hi - t)) there, so the mass is (hi - lo)^2 / 8
        return StepFunction(2.0, (-2.0, lo, hi, 2.0), (1.0, 0.5, 0.0))

    def test_midpoints_round_onto_an_edge(self):
        (lo0, hi0), (lo1, hi1) = ONE_ULP_PIECES
        assert 0.5 * (lo0 + hi0) == lo0 and 0.5 * (lo1 + hi1) == hi1

    @pytest.mark.parametrize("lo, hi", ONE_ULP_PIECES, ids=["left", "right"])
    def test_full_line_mass(self, lo, hi):
        rho = stieltjes_invert(HerglotzRep(self.xi(lo, hi)))
        assert rho.ac_pieces == (AcPiece(lo, hi, 1.0),)
        assert total_mass(rho) == pytest.approx((hi - lo) ** 2 / 8.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("lo, hi", ONE_ULP_PIECES, ids=["left", "right"])
    def test_one_ulp_band_keeps_its_piece(self, lo, hi):
        rho = stieltjes_invert(HerglotzRep(self.xi(lo, hi)))
        nu = half_line_measure(rho, CompactSet(((lo, hi),)))
        assert nu.ac_pieces == (AcPiece(lo, hi, 0.5),)
        assert total_mass(nu) == 0.5 * total_mass(rho)

    @pytest.mark.parametrize("lo, hi", ONE_ULP_PIECES, ids=["left", "right"])
    def test_one_ulp_selector_interval_keeps_its_piece(self, lo, hi):
        # off K = [-2, lo] the selector is 0.6 on the first ulp only
        nu = half_line_measure(semicircle_rho(), CompactSet(((-2.0, lo),)),
                               FSelector(intervals=((lo, hi, 0.6),)))
        assert nu.ac_pieces == (AcPiece(-2.0, lo, 0.5), AcPiece(lo, hi, 0.6))


class TestMassAndMoments:
    def test_semicircle_mass_one(self):
        assert total_mass(half_line_measure(semicircle_rho(), BAND)) == \
            pytest.approx(1.0, abs=1e-11)

    def test_atom_sum_exact(self):
        m = SpectralMeasure(None, (), ((0.0, 4.0),))
        assert total_mass(m) == 4.0

    def test_admissible_mass_never_below_one(self, rng):
        # cross-checked against an independent quadrature at tighter tol
        from reflectionless.experiments import random_admissible_krein
        for _ in range(5):
            xi = random_admissible_krein(rng, BAND)
            rho = stieltjes_invert(HerglotzRep(xi))
            nu = half_line_measure(rho, BAND)
            mass = total_mass(nu)
            assert mass >= 1.0 - 1e-9
            rep = rho.rep
            oracle = sum(
                quad(lambda t: abs_boundary(rep, t) / (2.0 * math.pi),
                     p.lo, p.hi, limit=200)[0]
                for p in nu.ac_pieces)
            assert mass == pytest.approx(oracle, abs=5e-8)

    def test_memoized_mass_is_the_quadrature_route(self):
        k_set = CompactSet(((-2.0, 0.0), (1.0, 2.0)))
        f = FSelector(atom_weights=((0.7, 0.5),))

        def make():
            return half_line_measure(stieltjes_invert(HerglotzRep(XI_WITH_ATOM)), k_set, f)

        nu, fresh = make(), make()
        ac = sum(per_piece_rule(nu, p)[3] for p in nu.ac_pieces)
        expected = float(ac + sum(m for _, m in nu.atoms))
        assert total_mass(nu) == expected
        assert "_mass_rules" in vars(nu) and "_mass_rules" not in vars(fresh)
        assert total_mass(nu) == expected
        # the memo is no field: it leaves equality and hashing alone
        assert nu == fresh
        assert hash(nu) == hash(fresh)

    def test_semicircle_moments_match_catalan_numbers(self):
        # the memoized mass rule carries the low moments that shallow
        # reconstruction relies on
        nu0 = half_line_measure(semicircle_rho(), BAND)
        got = rule_moments(*mass_rule_support(nu0), 6)
        assert np.max(np.abs(got - catalan_moments(6))) < 1e-10
        # independent quadrature oracle for the even moments
        for k in (2, 4, 6):
            val, _ = quad(lambda t: t**k * np.sqrt(4.0 - t**2) / (2.0 * math.pi),
                          -2.0, 2.0, limit=200)
            assert got[k] == pytest.approx(val, abs=1e-9)

    def test_symmetric_measure_has_zero_odd_moments(self):
        nu0 = half_line_measure(semicircle_rho(), BAND)
        got = rule_moments(*mass_rule_support(nu0), 7)
        assert np.max(np.abs(got[1::2])) < 1e-12


class TestLockstepMassRules:
    """`_mass_rules` evaluates every piece's density in one call per rule
    size; it must give bitwise the rules of the per-piece loop."""

    @staticmethod
    def assert_per_piece(nu):
        rules = nu._mass_rules
        assert len(rules) == len(nu.ac_pieces)
        for (n, t, wd, mass), piece in zip(rules, nu.ac_pieces):
            n0, t0, wd0, mass0 = per_piece_rule(nu, piece)
            assert n == n0
            assert np.array_equal(t, t0)
            assert np.array_equal(wd, wd0)
            assert np.array_equal(mass, mass0)

    @pytest.mark.parametrize("n_pieces", range(1, 9))
    def test_one_to_eight_pieces(self, n_pieces):
        self.assert_per_piece(random_half_line(np.random.default_rng(n_pieces), n_pieces))

    def test_pieces_converging_at_different_sizes(self):
        # the middle band sees xi jump 0 -> 1 at 1.00001, 1e-5 past its right
        # edge: only it needs the doublings past 128 nodes
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.0, 1.0), (-2.0, -1.0, 0.5), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.5),
                  (1.0, 1.00001, 0.0), (1.00001, 1.5, 1.0), (1.5, 2.5, 0.5), (2.5, 3.0, 0.0)])
        k_set = CompactSet(((-2.0, -1.0), (0.0, 1.0), (1.5, 2.5)))
        nu = half_line_measure(stieltjes_invert(HerglotzRep(xi)), k_set)
        assert [rule[0] for rule in nu._mass_rules] == [128, 512, 128]
        self.assert_per_piece(nu)

    def test_breakpoint_columns_built_once_per_measure(self, monkeypatch):
        # the measure of `test_pieces_converging_at_different_sizes`: three
        # density calls (the 64 and 128 rules, 256, 512) read the
        # coefficients of ln|H| from the table that the first one builds
        xi = StepFunction.from_pieces(
            3.0, [(-3.0, -2.0, 1.0), (-2.0, -1.0, 0.5), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.5),
                  (1.0, 1.00001, 0.0), (1.00001, 1.5, 1.0), (1.5, 2.5, 0.5), (2.5, 3.0, 0.0)])
        k_set = CompactSet(((-2.0, -1.0), (0.0, 1.0), (1.5, 2.5)))
        nu = half_line_measure(stieltjes_invert(HerglotzRep(xi)), k_set)
        reads = []
        prop = StepFunction.abs_log_coefficients
        monkeypatch.setattr(StepFunction, "abs_log_coefficients",
                            property(lambda xi: reads.append(xi) or prop.fget(xi)))
        assert [rule[0] for rule in nu._mass_rules] == [128, 512, 128]
        assert reads == [nu.rep.xi]

    def test_no_convergence_within_8192_nodes_raises(self, monkeypatch):
        # weights that grow with n keep successive masses 1e-9 apart
        rule = measures._theta_rule
        monkeypatch.setattr(measures, "_theta_rule", lambda n: (
            rule(n)[0], rule(n)[1] * (1.0 + 1e-9 * n), *rule(n)[2:]))
        # and the 64 + 128 start rule from those, in a cache of the test's own
        monkeypatch.setattr(measures, "_start_rule", lru_cache(measures._start_rule.__wrapped__))
        nu = random_half_line(np.random.default_rng(3), 3)
        with pytest.raises(NumericError) as oracle:
            per_piece_rule(nu, nu.ac_pieces[0])
        assert "8192 nodes" in str(oracle.value)
        with pytest.raises(NumericError, match=re.escape(str(oracle.value))):
            total_mass(nu)


class TestDiscretization:
    def test_semicircle_mass_preserved(self):
        nu0 = half_line_measure(semicircle_rho(), BAND)
        _, w = nu0._rule(0, *_theta_rule(200))
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_array_discretization_matches_the_tuple_route(self):
        # the pieces' rules are concatenated without a sort, so their nodes
        # must already be in (node, weight) order and strictly ascend, also
        # where two pieces share an edge: on several bands and on f-cut
        # pieces, for the mass rules and depth-sized Fejer rules
        three_bands = CompactSet(((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0)))
        xi = canonical_krein_from_jumps(three_bands, GapJumps((0.6, 0.4)))
        f_cut = StepFunction.from_pieces(
            3.0, [(-3.0, -2.0, 1.0), (-2.0, 0.0, 0.5), (0.0, 0.5, 0.5),
                  (0.5, 1.0, 0.0), (1.0, 2.0, 0.5), (2.0, 3.0, 0.0)])
        measures = [
            half_line_measure(stieltjes_invert(HerglotzRep(xi)), three_bands),
            half_line_measure(stieltjes_invert(HerglotzRep(f_cut)),
                              CompactSet(((-2.0, 0.0), (1.0, 2.0))),
                              FSelector(intervals=((0.0, 0.3, 0.6),))),
        ]
        assert [len(nu.ac_pieces) for nu in measures] == [3, 3]
        assert measures[1].ac_pieces[0].hi == measures[1].ac_pieces[1].lo
        for nu in measures:
            rules = {"mass": mass_rule_support(nu),
                     "fejer-428": flat_rule(nu, 428),
                     "fejer-728": flat_rule(nu, 728)}
            for kind, (nodes, weights) in rules.items():
                assert np.all(np.diff(nodes) > 0), kind
                ref = sorted(zip(nodes.tolist(), weights.tolist()))
                assert nodes.tolist() == [x for x, _ in ref], kind

    def test_moments_to_order_twenty(self):
        nu0 = half_line_measure(semicircle_rho(), BAND)
        t, w = nu0._rule(0, *_theta_rule(200))
        got = rule_moments(t, w, 20)
        assert np.max(np.abs(got - catalan_moments(20))) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 64, 128, 727, 3200])
    def test_fejer_rule(self, n):
        th, w, *_ = _theta_rule(n)
        x, w = th / (np.pi / 2.0), w / (np.pi / 2.0)
        # the O(n^2) cosine sum that the FFT evaluates
        theta = (np.arange(n) + 0.5) * np.pi / n
        j = np.arange(1, n // 2 + 1)
        direct = (2.0 / n) * (1.0 - 2.0 * (np.cos(2.0 * np.outer(theta, j))
                                           / (4.0 * j * j - 1.0)).sum(axis=1))
        assert np.max(np.abs(w - direct)) <= 1e-15
        assert np.all(w > 0)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        for k in range(min(n - 1, 20) + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) <= 1e-15, k
        if n >= 64:  # fewer nodes do not resolve e^x cos 3x
            def primitive(t):
                return np.exp(t) * (np.cos(3.0 * t) + 3.0 * np.sin(3.0 * t)) / 10.0
            got = w @ (np.exp(x) * np.cos(3.0 * x))
            assert abs(got - (primitive(1.0) - primitive(-1.0))) <= 1e-15


def reference_rule(n):
    """The n-node Fejer rule in theta, (theta, w), by the expressions that
    `_theta_rule` must keep bitwise: one inverse FFT (Waldvogel, BIT 46, 2006),
    with nodes computed as exactly symmetric sines."""
    j = np.arange((n + 1) // 2)
    v = np.zeros(n + 1, dtype=complex)
    v[j] = 2.0 * np.exp(1j * np.pi * j / n) / (1.0 - 4.0 * j * j)
    w = np.fft.ifft(v[:-1] + np.conj(v[:0:-1])).real
    x = np.sin((2 * np.arange(n) + 1 - n) * (0.5 * np.pi / n))
    return x * (np.pi / 2.0), w * (np.pi / 2.0)


class TestThetaRule:
    """`_theta_rule` builds every rule in theta, cached with its edge factors."""

    @pytest.mark.parametrize("n", [2, 5, 64, 128, 727, 3200], ids="{}-fejer".format)
    def test_nodes_weights_and_edge_factors_bitwise(self, n):
        rule = _theta_rule(n)
        theta, w, *edges = rule
        assert [a.shape for a in rule] == [(n,)] * 4
        assert not any(a.flags.writeable for a in rule)
        for got, want in zip(rule, (*reference_rule(n), *_edge_factors(theta))):
            assert got.tobytes() == want.tobytes()
        assert _theta_rule(n) is rule

    def test_start_rule_is_the_64_and_128_node_rules_side_by_side(self):
        start = measures._start_rule()
        for got, low, high in zip(start, _theta_rule(64), _theta_rule(128)):
            assert got.tobytes() == low.tobytes() + high.tobytes()
        for got, want in zip(start[2:], _edge_factors(start[0])):
            assert got.tobytes() == want.tobytes()

    def test_a_repeated_reconstruction_computes_no_edge_factors(self, monkeypatch):
        # a piece with a regular edge at -1 and one with square-root edges at 1
        # and 2, each on the rules of ceil(40 pi + 40^(1/3)) + 128 and 32 more
        # nodes; the second report at the same depth reads every edge factor
        # from the cached rules
        nu = SpectralMeasure(HerglotzRep(XI_WITH_ATOM),
                             (AcPiece(-2.0, -1.0, 1.0), AcPiece(1.0, 2.0, 1.0)))
        first, report = reconstruction_report(nu, 40)
        assert [(r["nodes"], r["certifying_nodes"]) for r in report["rules"]] == [(258, 290)] * 2
        calls = []
        monkeypatch.setattr(measures, "_edge_factors",
                            lambda theta: calls.append(theta.size) or _edge_factors(theta))
        second, again = reconstruction_report(nu, 40)
        assert calls == []
        assert again == report
        assert second.a_window.tobytes() == first.a_window.tobytes()
        assert second.b_window.tobytes() == first.b_window.tobytes()


class TestValidation:
    @pytest.mark.parametrize("make", [
        lambda: AcPiece(-2.0, 2.0, math.nan),
        lambda: AcPiece(-2.0, math.inf, 0.5),
        lambda: SpectralMeasure(None, (), ((math.nan, 1.0),)),
        lambda: SpectralMeasure(None, (), ((0.0, math.inf),)),
        lambda: FSelector(atom_weights=((math.nan, 0.5),)),
        lambda: FSelector(atom_weights=((math.inf, 0.5),)),
    ], ids=["nan-multiplier", "infinite-edge", "nan-atom-position", "infinite-atom-mass",
            "nan-selector-atom-position", "infinite-selector-atom-position"])
    def test_non_finite_measure_data_rejected(self, make):
        with pytest.raises(ValueError):
            make()


    @pytest.mark.parametrize("lo, hi", [(0.2, 1.5), (2.5, 3.5)],
                             ids=["across-a-breakpoint", "past-the-domain"])
    def test_ac_piece_outside_one_piece_of_xi_refused(self, lo, hi):
        # xi jumps at 0.7 and 1.0 and ends at R = 3
        nu = SpectralMeasure(HerglotzRep(XI_WITH_ATOM), (AcPiece(lo, hi, 1.0),))
        with pytest.raises(ValueError, match="not inside one piece of xi"):
            total_mass(nu)

    @pytest.mark.parametrize("multiplier", [0.5e-321, 1e-310])
    def test_multiplier_below_the_normal_range_refused(self, multiplier):
        # multiplier x width^2 below 2.2e-308: the densities were subnormal,
        # and at 0.5e-321 the semicircle read a_1 = 0.964 and a_5 = 0.929
        nu = SpectralMeasure(HerglotzRep(free_krein(2.0)), (AcPiece(-2.0, 2.0, multiplier),))
        with pytest.raises(ValueError, match=rf"multiplier {multiplier:.3g} on \(-2.0, 2.0\)\) .*normal range"):
            reconstruct_coefficients(nu, 5)

    def test_small_multiplier_inside_the_normal_range_reconstructs(self):
        nu = SpectralMeasure(HerglotzRep(free_krein(2.0)), (AcPiece(-2.0, 2.0, 1e-300),))
        rec = reconstruct_coefficients(nu, 5)
        assert np.max(np.abs(rec.a_window[1:] - 1.0)) <= 1e-12


class TestReadOnlyMemos:
    """Arrays that a cache or a memo hands to every caller refuse in-place
    writes, so no caller can corrupt the next one's rule."""

    @pytest.mark.parametrize("n", [64, 128])
    def test_fejer_rule(self, n):
        for a in _theta_rule(n):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_start_rule(self):
        # theta, w and the two edge factors
        rule = measures._start_rule()
        assert len(rule) == 4 and all(a.shape == (192,) for a in rule)
        for a in rule:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_measure_table(self):
        nu = half_line_measure(semicircle_rho(), BAND)
        for a in nu._table:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0


class TestSerialization:
    def test_selector_validation(self):
        with pytest.raises(ValueError):
            FSelector(intervals=((0.0, 1.0, 1.5),))
        with pytest.raises(ValueError):
            FSelector(atom_weights=((0.0, -0.1),))
        with pytest.raises(ValueError, match="each atom position may carry one weight"):
            FSelector(atom_weights=((0.7, 0.5), (0.7, 0.25)))

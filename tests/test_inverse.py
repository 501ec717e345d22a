import math
import re
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from reflectionless import (AcPiece, CompactSet, FSelector, GapJumps, HerglotzRep,
                            JacobiCoefficients, NumericError, SpectralMeasure,
                            StepFunction, Tail,
                            canonical_krein_from_jumps, coefficient_deviation,
                            free_krein, half_line_measure, lanczos_tridiag,
                            reconstruct_coefficients, stieltjes_invert,
                            total_mass)
from reflectionless.experiments import random_admissible_krein, random_f_selector
from reflectionless.measures import _fejer_rule

BAND = CompactSet(((-2.0, 2.0),))


def normalized_semicircle():
    rho = stieltjes_invert(HerglotzRep(free_krein(2.0)))
    return half_line_measure(rho, BAND)


def measure_of_tridiagonal(diag, offdiag, coupling):
    """delta_1 spectral measure of the finite half-line operator, scaled to
    total mass coupling^2 (the dense-eigensolver oracle).  MRRR (stemr) keeps
    tiny first eigenvector components to full relative accuracy, which QR
    (stev) does not."""
    lam, vec = eigh_tridiagonal(diag, offdiag, lapack_driver="stemr")
    return SpectralMeasure(None, (), tuple(
        (float(l), float(coupling**2 * w)) for l, w in zip(lam, vec[0, :] ** 2)
        if w > 0))


def discretize(nu, nodes):
    """The atoms and each ac piece's nodes-point Fejer rule, as (node, weight)
    arrays sorted by node, then by weight."""
    t = [np.array([x for x, _ in nu.atoms], dtype=float)]
    w = [np.array([m for _, m in nu.atoms], dtype=float)]
    for i in range(len(nu.ac_pieces)):
        ti, wi = nu._rule(i, *_fejer_rule(nodes))
        t.append(ti)
        w.append(wi)
    t, w = np.concatenate(t), np.concatenate(w)
    order = np.lexsort((w, t))
    return t[order], w[order]


def two_pass_lanczos(t, w, n_steps):
    """Lanczos that reorthogonalizes twice per step against the whole basis:
    the reference for the one-pass kernel."""
    scale = max(1.0, float(np.max(np.abs(t))))
    q = np.sqrt(w) / np.linalg.norm(np.sqrt(w))
    basis = np.empty((n_steps + 1, t.size))
    basis[0] = q
    alphas, betas = [], []
    q_prev, beta_prev = np.zeros_like(q), 0.0
    for k in range(1, n_steps + 1):
        u = t * q - beta_prev * q_prev
        alpha = float(q @ u)
        u = u - alpha * q
        qm = basis[:k]
        u = u - qm.T @ (qm @ u)
        u = u - qm.T @ (qm @ u)
        alphas.append(alpha)
        beta = float(np.linalg.norm(u))
        if beta <= 1e-12 * scale:
            raise NumericError(f"Lanczos breakdown at step {k}")
        betas.append(beta)
        q_prev, q = q, u / beta
        beta_prev = beta
        basis[k] = q
    return np.asarray(alphas), np.asarray(betas)


def plain_lanczos(t, w, n_steps):
    """The three-term recurrence with fresh temporaries and a per-step
    Bessel sum: the bitwise reference for the buffered kernel."""
    scale = max(1.0, float(np.max(np.abs(t))))
    q = np.sqrt(w)
    q = q / np.linalg.norm(q)
    q_prev, beta, row_sums = np.zeros_like(q), 0.0, q * q
    alphas, betas = np.empty(n_steps), np.empty(n_steps)
    for k in range(n_steps):
        u = t * q
        u -= beta * q_prev
        alphas[k] = alpha = q @ u
        u -= alpha * q
        beta = math.sqrt(u @ u)
        if beta <= 1e-12 * scale:
            raise NumericError(
                f"Lanczos breakdown at step {k + 1}: off-diagonal {beta} "
                "(discretization too coarse for the requested depth)")
        betas[k] = beta
        q_prev, q = q, u / beta
        row_sums += q * q
    if row_sums.max() > 1.0 + 1e-10:
        raise NumericError(f"Lanczos lost orthogonality by step {n_steps}: basis row sum "
                           f"{row_sums.max()} > 1 (isolated atom, or rule too coarse)")
    return alphas, betas


def canonical_half_line(bands, jumps=()):
    k_set = CompactSet(bands)
    xi = canonical_krein_from_jumps(k_set, GapJumps(jumps))
    return half_line_measure(stieltjes_invert(HerglotzRep(xi)), k_set)


def small_scale_measure(lam):
    """ROADMAP item 21c's family: xi = 1 on (-4, -2) and 1/2 on (-2, 2) and
    (2.5, 2.6), K = [-2, 2] and f = 0.7 on (2.5, 2.6), all times lam."""
    xi = StepFunction.from_pieces(4 * lam, [(-4 * lam, -2 * lam, 1.0), (-2 * lam, 2 * lam, 0.5),
                                            (2.5 * lam, 2.6 * lam, 0.5)])
    f = FSelector(intervals=((2.5 * lam, 2.6 * lam, 0.7),))
    return half_line_measure(stieltjes_invert(HerglotzRep(xi)),
                             CompactSet(((-2 * lam, 2 * lam),)), f)


def semicircle_with_atoms(atoms):
    return SpectralMeasure(HerglotzRep(free_krein(2.0)),
                           (AcPiece(-2.0, 2.0, 0.5),), atoms)


def two_band_cut_measure():
    """Bands [-2, 0] u [1, 2] with xi = 1/2 also on the gap piece (0, 0.5),
    which the selector cuts at 0.3: three ac pieces with regular edges."""
    xi = StepFunction.from_pieces(
        3.0, [(-3.0, -2.0, 1.0), (-2.0, 0.0, 0.5), (0.0, 0.5, 0.5),
              (0.5, 1.0, 0.0), (1.0, 2.0, 0.5), (2.0, 3.0, 0.0)])
    k_set = CompactSet(((-2.0, 0.0), (1.0, 2.0)))
    f = FSelector(intervals=((0.0, 0.3, 0.6),))
    return half_line_measure(stieltjes_invert(HerglotzRep(xi)), k_set, f)


def near_breakpoint_measure():
    """The band [-2, 2] with xi jumping 0 -> 1 at 2.001: the density's
    near-pole 1e-3 outside the edge keeps the mass unconverged at 128 nodes."""
    xi = StepFunction.from_pieces(
        3.0, [(-3.0, -2.0, 1.0), (-2.0, 2.0, 0.5), (2.0, 2.001, 0.0),
              (2.001, 2.5, 1.0), (2.5, 3.0, 0.0)])
    return half_line_measure(stieltjes_invert(HerglotzRep(xi)), BAND)


@pytest.fixture
def density_calls(monkeypatch):
    """(ac piece, node count) of every density evaluation from here on, one
    entry per piece that a call evaluates."""
    calls = []
    original = SpectralMeasure.density_on_arc

    def counted(self, index, theta):
        nodes = np.broadcast_arrays(index, theta)[0]
        calls.extend((self.ac_pieces[i], int(np.count_nonzero(nodes == i)))
                     for i in np.unique(nodes))
        return original(self, index, theta)

    monkeypatch.setattr(SpectralMeasure, "density_on_arc", counted)
    return calls


def dr_measure():
    """The `dr` experiment's measure: semicircle plus atoms at 2.5, 3.0, -2.7."""
    return semicircle_with_atoms(((2.5, 0.3), (3.0, 0.3), (-2.7, 0.3)))


def cut_semicircle_with_atom():
    """The semicircle cut at 0, so that each piece has one regular edge,
    plus an atom at 2.61."""
    return SpectralMeasure(HerglotzRep(free_krein(2.0)),
                           (AcPiece(-2.0, 0.0, 0.5), AcPiece(0.0, 2.0, 0.5)), ((2.61, 0.3),))


def assert_matches_two_pass(nu, depth, tol):
    """Reconstruction to depth against two-pass Lanczos on 3200 Fejer nodes
    per piece, atoms included."""
    rec = reconstruct_coefficients(nu, depth)
    t, w = discretize(nu, 3200)
    alphas, betas = two_pass_lanczos(t, w / np.sum(w), depth)
    assert np.max(np.abs(rec.a_window[1:] - betas)) <= tol
    assert np.max(np.abs(rec.b_window[1:] - alphas)) <= tol


class TestLanczosKernel:
    @pytest.mark.parametrize("t, w", [((0.0, 1.0), (0.5, math.nan)),
                                      ((0.0, math.nan), (0.5, 0.5)),
                                      ((0.0, 1.0), (0.5, math.inf))])
    def test_non_finite_input_rejected(self, t, w):
        with pytest.raises(ValueError, match="finite"):
            lanczos_tridiag(np.array(t), np.array(w), 1)

    @pytest.mark.parametrize("nu, nodes, depth", [
        (canonical_half_line(((-1.9, 3.3),)), 400, 200),
        (canonical_half_line(((-1.9, 3.3),)), 1600, 800),
        (canonical_half_line(((-3.0, -1.5), (-0.5, 1.0), (2.0, 3.0)), (0.6, 0.4)),
         200, 300),
    ], ids=["semicircle-400", "semicircle-1600", "canonical3-200"])
    def test_one_pass_matches_two_pass(self, nu, nodes, depth):
        t, w = discretize(nu, nodes)
        w = w / np.sum(w)
        assert depth <= 0.5 * t.size
        alphas, betas = lanczos_tridiag(t, w, depth)
        ref_alphas, ref_betas = two_pass_lanczos(t, w, depth)
        assert np.max(np.abs(alphas - ref_alphas)) <= 1e-13
        assert np.max(np.abs(betas - ref_betas)) <= 1e-13

    @pytest.mark.parametrize("n_steps", [0, 1, 15, 16, 17, 33, 100])
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_plain_recurrence(self, n_steps, seed):
        # the depths put the last basis row on either side of a block edge
        rng = np.random.default_rng(seed)
        t = rng.uniform(-3.0, 3.0, 400)
        w = rng.uniform(0.0, 1.0, 400)
        alphas, betas = lanczos_tridiag(t, w / np.sum(w), n_steps)
        ref_alphas, ref_betas = plain_lanczos(t, w / np.sum(w), n_steps)
        assert np.array_equal(alphas, ref_alphas) and np.array_equal(betas, ref_betas)

    @pytest.mark.parametrize("t, w, n_steps", [
        (np.arange(12.0), np.ones(12) / 12, 17),
        (np.linspace(-1.0, 1.0, 40), np.ones(40) / 40, 40),
        (*discretize(normalized_semicircle(), 400), 300),
        (*discretize(semicircle_with_atoms(((2.61, 0.3),)), 400), 200),
    ], ids=["breakdown-12", "lost-40-on-40", "semicircle-300-on-400", "isolated-atom"])
    def test_raises_as_plain_recurrence(self, t, w, n_steps):
        # a lost-orthogonality message quotes the largest row sum, whose
        # summation order differs; its digits agree to rounding
        with pytest.raises(NumericError) as ref:
            plain_lanczos(t, w / np.sum(w), n_steps)
        with pytest.raises(NumericError) as got:
            lanczos_tridiag(t, w / np.sum(w), n_steps)
        number = re.compile(r"row sum (\S+) >")
        got, ref = str(got.value), str(ref.value)
        assert number.sub("", got) == number.sub("", ref)
        if number.search(ref):
            assert float(number.search(got)[1]) == pytest.approx(float(number.search(ref)[1]),
                                                                 rel=1e-13, abs=0)

    @pytest.mark.parametrize("nu, nodes, depth", [
        (semicircle_with_atoms(((2.61, 0.3),)), 400, 200),
        (normalized_semicircle(), 400, 300),
        (normalized_semicircle(), 400, 303),
    ], ids=["isolated-atom", "semicircle-300-on-400", "semicircle-303-on-400"])
    def test_lost_orthogonality_raises(self, nu, nodes, depth):
        # the plain recurrence would return wrong coefficients here (the
        # semicircle's last 20 off by 0.92); the Bessel guard refuses them.
        # At depth 303 the 304 basis rows end on a full block.
        t, w = discretize(nu, nodes)
        with pytest.raises(NumericError, match="lost orthogonality"):
            lanczos_tridiag(t, w / np.sum(w), depth)


class TestReconstruction:
    def test_semicircle_recovers_free_coefficients(self):
        rec = reconstruct_coefficients(normalized_semicircle(), 20)
        for n in range(21):
            assert abs(rec.a(n) - 1.0) < 1e-8
            assert abs(rec.b(n)) < 1e-8

    def test_single_atom_gives_the_coupling(self):
        nu = SpectralMeasure(None, (), ((0.0, 4.0),))
        rec = reconstruct_coefficients(nu, 0)
        assert rec.a(0) == 2.0
        assert rec.b(0) == 0.0  # site-0 diagonal placeholder

    def test_support_too_small_rejected(self):
        nu = SpectralMeasure(None, (), ((0.0, 4.0),))
        with pytest.raises(ValueError):
            reconstruct_coefficients(nu, 1)

    def test_roundtrip_through_dense_eigensolver(self, rng):
        for _ in range(5):
            size = 20
            diag = rng.uniform(-1.0, 1.0, size)
            off = rng.uniform(0.5, 2.0, size - 1)
            coupling = float(rng.uniform(0.5, 2.0))
            nu = measure_of_tridiagonal(diag, off, coupling)
            rec = reconstruct_coefficients(nu, size - 1)
            errs = [abs(rec.a(0) - coupling)]
            errs += [abs(rec.a(n) - off[n - 1]) for n in range(1, size)]
            errs += [abs(rec.b(n) - diag[n - 1]) for n in range(1, size)]
            assert max(errs) < 1e-8

    def test_mass_coefficient_consistency(self):
        # the finite section of the reconstruction reproduces the first 2N
        # moments of the input measure: the Catalan numbers at even orders
        n = 10
        nu = normalized_semicircle()
        rec = reconstruct_coefficients(nu, n)
        diag = np.array([rec.b(k) for k in range(1, n + 1)])
        off = np.array([rec.a(k) for k in range(1, n)])
        lam, vec = eigh_tridiagonal(diag, off, lapack_driver="stemr")
        sect = np.array([np.sum(vec[0, :] ** 2 * lam**k) for k in range(2 * n)])
        exact = np.array([0.0 if k % 2 else math.comb(k, k // 2) / (k // 2 + 1)
                          for k in range(2 * n)])
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(sect - exact) / scale) < 1e-8
        assert total_mass(nu) == pytest.approx(rec.a(0) ** 2, rel=1e-12, abs=0)

    def test_mass_lower_bound_on_random_admissible_inputs(self, rng):
        for _ in range(20):
            xi = random_admissible_krein(rng, BAND)
            rho = stieltjes_invert(HerglotzRep(xi))
            f = random_f_selector(rng, rho, BAND)
            nu = half_line_measure(rho, BAND, f)
            rec = reconstruct_coefficients(nu, 4)
            assert rec.a(0) >= 1.0 - 1e-6

    def test_visible_perturbations_push_the_coupling_up(self, rng):
        # inputs measurably away from the reference get a strictly larger
        # coupling; the margin is recorded, not just its sign
        margins = []
        free_xi = free_krein(4.0)
        for _ in range(15):
            xi = random_admissible_krein(rng, BAND, bound=4.0)
            rho = stieltjes_invert(HerglotzRep(xi))
            nu = half_line_measure(rho, BAND)
            dist = xi.l1_distance(free_xi)
            if dist < 0.05:
                continue
            margins.append(math.sqrt(total_mass(nu)) - 1.0)
        assert margins and min(margins) > 1e-8

    def test_selector_mass_is_a_certified_margin(self, rng):
        xi = random_admissible_krein(rng, BAND)
        rho = stieltjes_invert(HerglotzRep(xi))
        base = total_mass(half_line_measure(rho, BAND))
        f = random_f_selector(rng, rho, BAND)
        nu = half_line_measure(rho, BAND, f)
        added = total_mass(nu) - base
        assert total_mass(nu) >= 1.0 + added - 1e-8

    @pytest.mark.parametrize("nu, depth", [
        (semicircle_with_atoms(((2.61, 0.3),)), 200),
        (semicircle_with_atoms(((-3.4, 0.1), (3.0, 0.45))), 100),
        (semicircle_with_atoms(((-2.55, 0.2), (2.95, 0.35), (3.45, 0.12))), 800),
    ], ids=["dr1-400", "dr2-200", "dr3-1600"])
    def test_atoms_match_two_pass_lanczos(self, nu, depth):
        assert_matches_two_pass(nu, depth, 1e-13)

    @pytest.mark.parametrize("depth", [40, 100, 300])
    def test_regular_edges_keep_gauss_legendre_accuracy(self, depth):
        # the Fejer rules on the two pieces with a regular edge reach the
        # 1e-13 that the Gauss-Legendre rules they replaced reached
        assert_matches_two_pass(cut_semicircle_with_atom(), depth, 1e-13)

    @pytest.mark.parametrize("make", [normalized_semicircle, dr_measure],
                             ids=["semicircle", "dr"])
    @pytest.mark.parametrize("depth", [250, 300, 1000])
    def test_deep_tail_is_free(self, make, depth):
        # the measures' coefficients equal the free values to 1e-14 by n = 31
        rec = reconstruct_coefficients(make(), depth)
        tail = slice(depth - 19, depth + 1)
        assert np.max(np.abs(rec.a_window[tail] - 1.0)) <= 1e-12
        assert np.max(np.abs(rec.b_window[tail])) <= 1e-12

    def test_deep_reconstruction_is_linear_time(self):
        # O(N m) on depth-sized rules: N = 1000 took 0.67 s with the
        # reorthogonalized recurrence on 400/800/1600-node rules
        nu = dr_measure()
        total_mass(nu)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            reconstruct_coefficients(nu, 1000)
            best = min(best, time.perf_counter() - start)
        assert best <= 0.3

    def test_breakdown_reported_not_clamped(self):
        # two atoms 1e-15 apart at |t| = 1: a_1 = 5.6e-16 is below the
        # breakdown threshold 1e-12 x scale
        nu = SpectralMeasure(None, (), ((1.0, 1.0), (1.0 + 1e-15, 1.0)))
        with pytest.raises(NumericError, match="breakdown"):
            reconstruct_coefficients(nu, 1)

    def test_clustered_pair_at_its_own_scale(self):
        # the same separation at the origin is the 1e-15-scaled copy of
        # delta_0 + delta_1, whose a_1 is half the separation
        nu = SpectralMeasure(None, (), ((0.0, 1.0), (1e-15, 1.0)))
        assert reconstruct_coefficients(nu, 1).a(1) == pytest.approx(5e-16, rel=1e-12, abs=0)

    @pytest.mark.parametrize("exponent", [40, 60, 100])
    @pytest.mark.parametrize("depth", [6, 40])
    def test_small_scale_images_reconstruct(self, exponent, depth):
        # the lam-image of a measure reconstructs to the lam-image of its
        # coefficients, since the certificate and the breakdown test are
        # relative to the support's largest |t|, 2.6 lam here; with an
        # absolute 1e-12 floor no rule pair completed from lam = 2^-40 on.
        # Each side is certified to 1e-12 x its scale (2e-15 is observed).
        lam = 2.0 ** -exponent
        rec1, rec = (reconstruct_coefficients(small_scale_measure(s), depth) for s in (1.0, lam))
        for image, ref in ((rec.a_window, rec1.a_window), (rec.b_window, rec1.b_window)):
            assert np.max(np.abs(image / lam - ref)) <= 2 * 1e-12 * 2.6


class TestMassRuleReuse:
    def test_density_evaluated_twice_per_piece(self, density_calls):
        nu = two_band_cut_measure()
        assert len(nu.ac_pieces) == 3
        total_mass(nu)
        reconstruct_coefficients(nu, 6)
        # 64 and 128 nodes for the mass, in one evaluation of all pieces;
        # the reconstruction reuses the 128
        assert density_calls == [(p, 64 + 128) for p in nu.ac_pieces]
        # past the gate (5N > 128) the measure is discretized afresh, on a
        # depth-sized rule and on the rule that certifies it
        reconstruct_coefficients(nu, 33)
        assert len(density_calls) == 3 * len(nu.ac_pieces)

    def test_certified_rules_take_one_density_call_per_size(self, monkeypatch):
        # past the gate every rule size of `_certified` evaluates the density
        # of all three pieces in one call
        from reflectionless import inverse

        nu = two_band_cut_measure()
        total_mass(nu)
        calls = []
        original = SpectralMeasure.density_on_arc

        def counted(self, index, theta):
            calls.append(np.unique(index).tolist())
            return original(self, index, theta)

        monkeypatch.setattr(SpectralMeasure, "density_on_arc", counted)
        _, rules, _ = inverse._certified(nu, 33)
        # certified by the first pair: the depth-sized rules and 32 nodes more
        assert [r["certifying_nodes"] - r["nodes"] for r in rules] == [32, 32, 32]
        assert calls == [[0, 1, 2], [0, 1, 2]]

    @pytest.mark.parametrize("make, nodes", [
        (two_band_cut_measure, 128),
        (near_breakpoint_measure, 256),
        (lambda: semicircle_with_atoms(((-3.0, 0.2), (2.61, 0.3))), 128),
    ], ids=["f-cut", "near-breakpoint", "atoms"])
    def test_gate_depth_matches_a_fine_reference(self, make, nodes, density_calls):
        nu = make()
        mass = total_mass(nu)
        assert min(rule[0] for rule in nu._mass_rules) == nodes
        evaluated = len(density_calls)
        # at the gate depth n/5; at n/4 the atoms case is off by 2e-12
        depth = nodes // 5
        rec = reconstruct_coefficients(nu, depth)
        assert len(density_calls) == evaluated  # the mass rules were reused
        t, w = discretize(nu, 3200)
        alphas, betas = two_pass_lanczos(t, w / mass, depth)
        assert np.max(np.abs(rec.a_window[1:] - betas)) <= 1e-12
        assert np.max(np.abs(rec.b_window[1:] - alphas)) <= 1e-12

    def test_breakdown_on_the_mass_rules_falls_back(self, monkeypatch):
        from reflectionless import inverse

        kernel, sizes = inverse.lanczos_tridiag, []

        def breaks_first(t, w, n_steps):
            sizes.append(t.size)
            if len(sizes) == 1:
                raise NumericError("forced breakdown")
            return kernel(t, w, n_steps)

        monkeypatch.setattr(inverse, "lanczos_tridiag", breaks_first)
        nu = two_band_cut_measure()
        rec = reconstruct_coefficients(nu, 6)
        # Fejer with 2N + 128 nodes on the two pieces with a regular
        # edge, the midpoint rule with N + 128 on [1, 2]; certified at 32 more
        assert sizes == [3 * 128, 2 * 140 + 134, 2 * 172 + 166]
        rules = [nu._rule(i, *inverse._theta_rule(n, mid)) for i, n, mid in
                 zip(range(3), (140, 140, 134), (False, False, True))]
        t, w = (np.concatenate(part) for part in zip(*rules))
        alphas, betas = kernel(t, w, 6)
        assert np.array_equal(rec.a_window[1:], betas)
        assert np.array_equal(rec.b_window[1:], alphas)

    @pytest.mark.parametrize("depth", [100, 300, 1000])
    def test_lone_regular_edge_piece_certifies_on_the_first_pair(self, monkeypatch, depth):
        # degree 2N + 1 in t is frequency about pi N in theta: the measure's
        # only Fejer piece starts at ceil(pi N + N^(1/3)) + 128 nodes, where
        # it used to step up from 2N + 128 through 3, 6 and 7 passes
        from reflectionless import inverse

        kernel, sizes = inverse.lanczos_tridiag, []

        def counted(t, w, n_steps):
            sizes.append(t.size)
            return kernel(t, w, n_steps)

        monkeypatch.setattr(inverse, "lanczos_tridiag", counted)
        nu = SpectralMeasure(HerglotzRep(free_krein(2.0)), (AcPiece(-1.0, 1.0, 1.0),))
        rec = reconstruct_coefficients(nu, depth)
        start = math.ceil(math.pi * depth + depth ** (1 / 3)) + 128
        assert sizes == [start, start + max(32, -(-depth // 4))]
        alphas, betas = kernel(*nu._rule(0, *_fejer_rule(2 * start)), depth)
        assert np.max(np.abs(rec.a_window[1:] - betas)) <= 1e-12
        assert np.max(np.abs(rec.b_window[1:] - alphas)) <= 1e-12

    def test_uncertified_depth_raises(self, monkeypatch):
        from reflectionless import inverse

        def always_breaks(t, w, n_steps):
            raise NumericError("forced breakdown")

        monkeypatch.setattr(inverse, "lanczos_tridiag", always_breaks)
        with pytest.raises(NumericError, match="not certified.*: no rule pair completed, "
                                               r"target 2e-12 \(1e-12 x scale\)$"):
            reconstruct_coefficients(normalized_semicircle(), 300)

    def test_refusal_names_the_reachable_accuracy(self):
        # atoms accumulating at 2.5: no float64 fold certifies 1e-12 at
        # N = 400 (the fold alone is off by 1.6e-9 against 80 digits)
        atoms = tuple((2.5 + 2.0**-k, 0.3 * 2.0**-k) for k in range(1, 20))
        with pytest.raises(NumericError) as err:
            reconstruct_coefficients(semicircle_with_atoms(atoms), 400)
        text = re.fullmatch(r"N=400 not certified within 4000 nodes per piece: "
                            r"best agreement (\S+), target 3e-12 \(1e-12 x scale\)",
                            str(err.value))
        assert text and 3e-12 < float(text.group(1)) < 1e-9


class TestReports:
    def test_reconstruction_report_fields(self):
        nu = normalized_semicircle()
        from reflectionless import reconstruction_report
        rec, rep = reconstruction_report(nu, 8)
        assert set(rep) == {"rules", "certificate", "min_offdiagonal"}
        # the certified coefficients agree with those of the shallow path
        # (5N <= 128) to 1e-13, inside the 1e-12 x scale (scale 2) of each
        shallow = reconstruct_coefficients(nu, 8)
        for mine, ref in ((rec.a_window, shallow.a_window), (rec.b_window, shallow.b_window)):
            assert np.max(np.abs(mine - ref)) < 1e-13
        assert rec.a(0) == pytest.approx(1.0, abs=1e-10)
        # a_n = 1 on the free half line, over the scale 2 of [-2, 2]
        assert rep["min_offdiagonal"] == pytest.approx(0.5, abs=1e-12)
        assert reconstruction_report(nu, 0)[1]["min_offdiagonal"] is None
        assert rep["rules"] == [{"interval": [-2.0, 2.0], "rule": "midpoint",
                                 "nodes": 136, "certifying_nodes": 168}]
        assert rep["certificate"] <= 1e-12
        cut = reconstruction_report(cut_semicircle_with_atom(), 8)[1]
        assert [r["rule"] for r in cut["rules"]] == ["fejer"] * 2

    def test_report_certified_after_a_step_up(self):
        # a band with one regular edge and an f piece off K, both Fejer from
        # 128-node mass rules: at N = 200 the pair (2N + 128, + 50) disagrees,
        # and the pair one step of 50 up certifies
        from reflectionless import reconstruction_report
        r = 3.9093288296726296
        xi = StepFunction.from_pieces(r, [(-2.0, r, 0.5)])
        lo, hi = 2.7326671786013867, 3.4792485170395295
        nu = half_line_measure(stieltjes_invert(HerglotzRep(xi)), BAND,
                               FSelector(((lo, hi, 0.3175815674764976),)))
        assert [rule[0] for rule in nu._mass_rules] == [128, 128]
        rec, rep = reconstruction_report(nu, 200)
        assert [(p["rule"], p["nodes"], p["certifying_nodes"]) for p in rep["rules"]] \
            == [("fejer", 2 * 200 + 128 + 50, 2 * 200 + 128 + 100)] * 2
        tol = 1e-12 * hi    # the scale: the f piece's right end
        assert rep["certificate"] <= tol
        shallow, _ = reconstruction_report(nu, 100)
        for mine, ref in ((rec.a_window, shallow.a_window), (rec.b_window, shallow.b_window)):
            assert np.max(np.abs(mine[:101] - ref)) <= tol

    def test_coefficients_csv(self, tmp_path):
        # the n,a,b CSV of a reconstructed window is dr's rows.csv
        from reflectionless.experiments import run_forward_asymptotics, write_report
        write_report(run_forward_asymptotics(n_coeffs=30), str(tmp_path))
        nu = SpectralMeasure(HerglotzRep(free_krein(2.0)), (AcPiece(-2.0, 2.0, 0.5),),
                             ((2.5, 0.3), (3.0, 0.3), (-2.7, 0.3)))
        rec = reconstruct_coefficients(nu, 30)
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert lines[0] == "n,a,b"
        assert lines[1:] == [f"{n},{rec.a(n)!r},{rec.b(n)!r}" for n in range(31)]


class TestDeviation:
    def test_exact_match_is_zero(self):
        rec = reconstruct_coefficients(normalized_semicircle(), 8)
        assert coefficient_deviation(rec, 1.0, 0.0, 5) < 1e-10

    def test_single_entry_dominates(self):
        j = JacobiCoefficients(2, 2, (1.0,), (0.3,), Tail.free())
        assert coefficient_deviation(j, 1.0, 0.0, 5) == 0.3

    def test_empty_window_rejected(self):
        from reflectionless import JacobiCoefficients
        j = JacobiCoefficients.periodic([1.0], [0.0]).restrict(10, 12)
        with pytest.raises(ValueError):
            coefficient_deviation(j, 1.0, 0.0, 5)

    def test_deviation_shrinks_with_the_perturbation(self):
        # one-parameter family: free measure plus an atom of mass eps at
        # 2.5; coupling^2 = 1 + eps exactly
        nu0 = normalized_semicircle()
        eps_list = (1e-1, 1e-2, 1e-3, 1e-4)
        devs = {el: [] for el in (2, 5, 10)}
        for eps in eps_list:
            nu = SpectralMeasure(nu0.rep, nu0.ac_pieces, ((2.5, eps),))
            rec = reconstruct_coefficients(nu, 15)
            assert rec.a(0) ** 2 == pytest.approx(1.0 + eps, rel=1e-9, abs=0)
            for el in devs:
                devs[el].append(coefficient_deviation(rec, 1.0, 0.0, el))
        for el, seq in devs.items():
            assert all(d0 > d1 - 1e-12 for d0, d1 in zip(seq, seq[1:])), \
                f"L={el}: {seq}"
            assert seq[-1] < seq[0]
        assert devs[2][-1] < 1e-2  # smallest eps pulls the near window free

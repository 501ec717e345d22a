r"""Half-line coefficient reconstruction from a spectral measure.

The total mass gives the coupling a_0 (mass = a_0^2).  The normalized
measure is the delta_1 spectral measure of the half-line operator on sites
>= 1; its entries (b_1, a_1, b_2, ...) are the recurrence coefficients of
its orthonormal polynomials, computed by Gautschi's discretized Stieltjes
procedure (Orthogonal Polynomials: Computation and Approximation, 2004,
sec. 2.2): the plain three-term recurrence on a rule for the ac part, O(m)
per step on m nodes, then one O(N) Gragg-Harrod sweep per atom (Numer.
Math. 44, 1984).  Unreorthogonalized, the recurrence loses orthogonality
only when a Ritz value converges onto a support point (Paige, 1976): at an
isolated atom, which never enters it here, or on a rule too coarse for the
depth, which the depth-sized rules exclude and the Bessel guard of
`lanczos_tridiag` detects.

`reconstruct_coefficients` takes one of three routes.  The shallow gate runs
the recurrence on the mass rules where they resolve the depth.  Deeper, a
measure of the canonical class (nu = (1/2) rho_ac on the bands of K, xi
canonical with no jump on a gap's face, atoms of any kind) gets its exact
pullback rule, and any other measure, or one whose exact route raises, gets
the certified pair of depth-sized rules (`_certified`).  On one band
K = [c, d], Delta is affine and nu's ac part is the semicircle on K, of mass
((d - c)/4)^2 and recurrence alpha_k = (c + d)/2, beta_k = (d - c)/4.  The
pullback rule uses Delta = 2 (P_L + P_R)/(P_L - P_R), with P_L and P_R the
products of z - e over the left and the right band ends: Delta pulls [-2, 2]
back to K with one preimage per band, and nu is the pullback of the semicircle
times the rational factor that moves the minimizer's jumps to nu's (Geronimo
and Van Assche, Trans. AMS 308, 1988; `extremal`'s docstring).  Its n nodes
per band solve ln|P_L| - ln|P_R| = tau_k = 2 ln cot(theta_k/2), theta_k =
k pi/(n+1), and carry the weights 2 pi density(x)/((n + 1) sin(theta_k) S(x)),
with S the derivative of ln|P_L/P_R|.  One atom at each jump x_j, of mass
w_j zeta^(2n+2)/(1 - zeta^(2n+2)) with w_j rho's residue there and zeta =
tanh(phi_j/4), phi_j = ln|P_L/P_R|(x_j), makes the rule exact to degree 2n - 1
despite the poles of that factor.  Rounding: each node is solved in
s = logit(u), u its offset from the band's left end over the band's length, so
that u and 1 - u, and with them its distances to every band edge as sums of
terms of one sign, are known to an ulp of the offset from its nearer edge; the
density reads those offsets, and S is a sum of positive terms in them.  So the
weights carry relative rounding errors only, however narrow a gap.

Indexing: the returned window is [0, N] with a = (a_0, a_1, ..., a_N) and
b = (b_0, b_1, ..., b_N).  The site-0 diagonal b_0 is NOT determined by
half-line data; it is stored as 0.0 as a documented placeholder (use
`restrict(1, N)` to drop it for window comparisons with B != 0).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .extremal import _MAX_STEPS, _edge_columns, _log_ratio
from .gapflow import GapJumps, canonical_krein_from_jumps, gap_jump_masses
from .measures import SpectralMeasure, _theta_rule, atom_positions_and_masses, total_mass
from .operators import JacobiCoefficients, Tail
from .sets import CompactSet

__all__ = ["reconstruct_coefficients", "coefficient_deviation", "lanczos_tridiag",
           "reconstruction_report"]

_MAX_NODES = 4000  # per ac piece, for a certified reconstruction
_BLOCK = 16  # basis rows per Bessel-sum update of `lanczos_tridiag`


def lanczos_tridiag(support: np.ndarray, weights: np.ndarray,
                    n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients (alpha_1..alpha_n, beta_1..beta_n) of the
    probability measure sum w_i delta_{t_i}, by the three-term recurrence on
    two vectors.  Raises on breakdown (an off-diagonal at most 1e-12 x the
    largest |t|: support too small or clustered) and on lost orthogonality.

    Without reorthogonalization the basis stays orthogonal until a Ritz
    value converges onto a support point (Paige, 1976), at a node of large
    isolated weight or once the depth outruns the rule, and the coefficients
    go wrong from there.  Bessel's inequality detects it: the row sums s_i =
    sum_k q_k[i]^2 of an orthonormal basis never exceed 1, while a basis that
    has lost orthogonality repeats the converged direction and pushes them
    past 1.  The sums only grow, so s.max() <= 1 + 1e-10 is checked once,
    after the last step.  Cost: about 15 numpy calls once (four min/max
    reductions check the input), then 6 ufunc calls and 2 dots per step (4
    and 2 at the first, where q_prev = 0) on u, one scratch vector and a block
    of at most 16 basis rows, all allocated once; one einsum adds the block's
    squares to the row sums when it fills and at the end."""
    t = np.asarray(support, dtype=float)
    w = np.asarray(weights, dtype=float)
    if t.shape != w.shape or t.ndim != 1:
        raise ValueError("support and weights must be matching 1-d arrays")
    hi, lo, w_lo, w_hi = t.max(), t.min(), w.min(), w.max()    # NaN-propagating
    if not all(map(math.isfinite, (hi, lo, w_lo, w_hi))):
        raise ValueError("support and weights must be finite")
    if w_lo < 0:
        raise ValueError("weights must be nonnegative")
    tiny = 1e-12 * max(-lo, hi)       # the breakdown threshold, relative
    q = np.sqrt(w)
    nrm = math.sqrt(q.dot(q))
    if nrm == 0:
        raise ValueError("measure has no mass")
    block = np.empty((min(_BLOCK, n_steps + 1), t.size))
    q = np.divide(q, nrm, out=block[0])
    u, scratch, row_sums = np.empty(t.size), np.empty(t.size), np.zeros(t.size)
    row, alphas, betas, mul = 0, [], [], np.multiply
    for k in range(n_steps):        # each ufunc writes to its third argument
        mul(t, q, u)
        if k:       # q_prev = 0 at the first step
            u -= mul(q_prev, beta, scratch)
        alpha = q.dot(u)
        u -= mul(q, alpha, scratch)
        beta = math.sqrt(u.dot(u))
        if beta <= tiny:
            raise NumericError(
                f"Lanczos breakdown at step {k + 1}: off-diagonal {beta} "
                "(discretization too coarse for the requested depth)")
        alphas.append(alpha)
        betas.append(beta)
        if row == _BLOCK - 1:
            row_sums += np.einsum("ij,ij->j", block, block)
        row = (row + 1) % _BLOCK
        q_prev, q = q, np.divide(u, beta, block[row])
    row_sums += np.einsum("ij,ij->j", block[:row + 1], block[:row + 1])
    if row_sums.max() > 1.0 + 1e-10:
        raise NumericError(f"Lanczos lost orthogonality by step {n_steps}: basis row sum "
                           f"{row_sums.max()} > 1 (isolated atom, or rule too coarse)")
    return np.array(alphas), np.array(betas)


def _fold_atom(a: list, d: list, x: float, mass: float) -> None:
    """Add mass * delta_x, in place, to the measure of mass a[0]^2 whose
    Jacobi matrix has diagonal d and off-diagonal a[1:-1], a[-1] = 0
    (Gragg-Harrod): the atom enters as a decoupled row 0 tied to the
    starting vector, and one Givens rotation per plane (j, j + 1) chases the
    bulge to the bottom."""
    g = a[0]
    a[0:1] = [math.sqrt(mass), 0.0]
    d.insert(0, x)
    for j in range(len(d) - 1):
        if g == 0.0:
            break
        r = math.hypot(a[j], g)
        c, s = a[j] / r, g / r
        a[j] = r
        dj, dk, e = d[j], d[j + 1], a[j + 1]
        d[j] = c * c * dj + 2.0 * c * s * e + s * s * dk
        d[j + 1] = s * s * dj - 2.0 * c * s * e + c * c * dk
        a[j + 1] = c * s * (dk - dj) + (c * c - s * s) * e
        g, a[j + 2] = s * a[j + 2], c * a[j + 2]


def _scale(nu: SpectralMeasure) -> float:
    return max([abs(x) for x, _ in nu.atoms]
               + [abs(e) for p in nu.ac_pieces for e in (p.lo, p.hi)])


def _jacobi(nu: SpectralMeasure, t, w, n_coeffs: int, orders: int = 1,
            free=None) -> tuple[np.ndarray, np.ndarray]:
    """(b_1..b_N, a_1..a_N) of nu with its ac part replaced by the rule of
    nodes t and weights w, or, given `free` = (alpha, beta), by the measure
    of mass beta^2 whose recurrence is alpha_k = alpha, beta_k = beta.  With
    atoms the recurrence goes one step deeper: the Gauss rule of that section
    matches the ac moments through degree 2N + 1, which fixes the first N
    pairs once the atoms are folded in.  With orders = 2 and two or more
    atoms, they are also folded in reverse order, and the two folds must
    agree to 1e-12 x scale."""
    a, d = [0.0], []
    if nu.ac_pieces:
        steps = n_coeffs + 1 if nu.atoms else n_coeffs
        alphas, betas = np.full((steps, 2), free).T if free else lanczos_tridiag(t, w, steps)
        if not nu.atoms:
            return alphas, betas
        root = free[1] if free else math.sqrt(float(np.sum(w)))
        a, d = [root] + betas[:-1].tolist() + [0.0], alphas.tolist()
    folds = []
    for atoms in (nu.atoms, nu.atoms[::-1])[:orders if len(nu.atoms) > 1 else 1]:
        a_k, d_k = a.copy(), d.copy()
        for x, mass in atoms:
            _fold_atom(a_k, d_k, x, mass)
        if len(d_k) < n_coeffs + 1:
            raise ValueError(f"measure support ({len(d_k)} points) too small for N={n_coeffs}")
        betas = np.abs(a_k[1:n_coeffs + 1])
        if n_coeffs and betas.min() <= 1e-12 * _scale(nu):
            raise NumericError(f"breakdown: off-diagonal {betas.min()} (support too clustered)")
        folds.append((np.array(d_k[:n_coeffs]), betas))
    if len(folds) > 1 and np.max(np.abs(np.subtract(*folds)), initial=0.0) > 1e-12 * _scale(nu):
        raise NumericError("the atoms' folds in the given and in reverse order differ")
    return folds[0]


def _canonical_bands(nu: SpectralMeasure):
    """(bands of K, gap jump masses) if nu is of the canonical class, else
    None: nu's ac pieces are the bands of K, each with multiplier 1/2, and
    its xi is canonical on K with no jump on a gap's face."""
    pieces = nu.ac_pieces
    if not pieces or any(p.multiplier != 0.5 for p in pieces):
        return None
    xi = nu.rep.xi
    try:
        k_set = CompactSet(tuple((p.lo, p.hi) for p in pieces))
        masses = gap_jump_masses(xi, k_set)
        canonical = canonical_krein_from_jumps(k_set, GapJumps(masses), xi.bound)
    except ValueError:
        return None
    ok = xi == canonical and all(0.0 < g < d - c for g, (c, d) in zip(masses, k_set.gaps()))
    return (np.array(k_set.intervals), masses) if ok else None


def _pullback_rule(nu: SpectralMeasure, n: int, found=None):
    """(nodes, weights) of the pullback rule of nu (module docstring), exact
    for every polynomial of degree <= 2n - 1 against nu's ac part, for nu of
    its class, whose `_canonical_bands` are `found` if given.  Raises
    `NumericError` if a node is not certified in `_MAX_STEPS` steps."""
    (bands, masses), xi = found or _canonical_bands(nu), nu.rep.xi
    gaps, edges, lengths = bands[1:, 0] - bands[:-1, 1], bands.ravel(), bands[:, 1] - bands[:, 0]
    # sin and cos of theta_k/2, theta_k = k pi/(n + 1), both as sines: the targets
    # tau_k = 2 ln cot(theta_k/2) come out antisymmetric, sin(theta_k) symmetric
    half = np.sin(np.arange(1, n + 1) * (0.5 * np.pi / (n + 1)))
    tau, sines = 2.0 * (np.log(half[::-1]) - np.log(half)), 2.0 * half * half[::-1]
    cols, sign, nodes = np.arange(edges.size), np.array([1.0, -1.0] * len(bands)), []
    for j, ((c, d), length) in enumerate(zip(bands, lengths)):
        # |x - e| = static + u L for the edges up to c, else static + v L: one sign
        left, mine = cols <= 2 * j, cols >> 1 == j
        static, others = np.where(left, c - edges, edges - d), np.where(mine, 0.0, sign)
        # phi - s = psi(x) decreases from psi(c) to psi(d), so the root s = tau - psi(x)
        # lies between tau - psi(c) and tau - psi(d)
        lo, hi = (tau - np.log(static[~mine] + length * (end == left[~mine])) @ sign[~mine]
                  for end in (0, 1))
        s = tau
        for it in range(_MAX_STEPS + 1):
            u, v = 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))
            dist = static + length * np.where(left, u[:, None], v[:, None])
            logs = np.log(dist)
            phi = s + logs @ others - tau
            done = np.abs(phi) <= 2.0 ** -52 * (np.abs(s) + np.abs(tau)
                                                 + (np.abs(logs) + 5.0) @ np.abs(others))
            # phi' = sum_e sign_e/(x - e), as the terms of one sign of the outer edges and
            # of each gap's edge pair, |gap|/(|x - d| |x - c|)
            slope = 1.0 / dist[:, 0] + 1.0 / dist[:, -1] + (
                gaps / dist[:, 1:-1:2] / dist[:, 2::2]).sum(axis=1)
            if done.all():
                break
            if it == _MAX_STEPS:
                raise NumericError(f"pullback nodes of band {j} not certified after {it} steps")
            lo, hi = np.where(phi < 0.0, s, lo), np.where(phi > 0.0, s, hi)
            newton = s - phi / (slope * length * u * v)      # dx/ds = L u v
            s = np.where(done, s, np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi)))
        nodes.append((np.where(u <= 0.5, c + length * u, d - length * v), u, v, slope))
    t, u, v, slope = map(np.concatenate, zip(*nodes))
    density = nu.density_on_arc(np.repeat(np.arange(len(bands)), n), None, (u, v))
    w = 2.0 * np.pi * density / ((n + 1) * np.tile(sines, len(bands)) * slope)
    # an atom at each jump x_j: rho's residue w_j times zeta^(2n+2)/(1 - zeta^(2n+2)), with
    # zeta = tanh(phi_j/4) and ln|zeta| = log1p(-2/(e^(|phi_j|/2) + 1))
    x, w_j = np.array(atom_positions_and_masses(xi)).reshape(-1, 2).T
    phi = np.abs(_log_ratio(_edge_columns(bands), np.array(masses) / gaps)[0])
    with np.errstate(divide="ignore", over="ignore"):
        mass = w_j / np.expm1(-(2 * n + 2) * np.log1p(-2.0 / (np.exp(0.5 * phi) + 1.0)))
    if not np.isfinite(mass).all():
        raise NumericError("a jump atom of the pullback rule has no finite mass")
    return np.concatenate((t, x)), np.concatenate((w, mass))


def _certified(nu: SpectralMeasure, n_coeffs: int):
    """((b_1..b_N, a_1..a_N), rule per piece, certificate) on the depth-sized
    rules that `reconstruct_coefficients` describes; one density call builds
    the rules of all pieces at each size."""
    if not nu.ac_pieces:
        return _jacobi(nu, None, None, n_coeffs), [], 0.0
    step = max(32, -(-n_coeffs // 4))
    if n_coeffs + 2 > _MAX_NODES - step:
        raise ValueError(f"the {_MAX_NODES}-node rule per piece is too small for N={n_coeffs}")
    start = math.ceil(math.pi * n_coeffs + n_coeffs ** (1 / 3))
    sizes = [min(start + rule[0], _MAX_NODES - step) for rule in nu._mass_rules]
    prev, tol, best = None, 1e-12 * _scale(nu), math.inf
    for extra in range(0, _MAX_NODES - max(sizes) + 1, step):
        counts = [n + extra for n in sizes]
        rule = map(np.concatenate, zip(*map(_theta_rule, counts)))
        index = np.repeat(np.arange(len(counts)), counts)
        try:
            cur = _jacobi(nu, *nu._rule(index, *rule), n_coeffs)
        except NumericError:
            cur = None
        if prev and cur:
            cert = float(np.max(np.abs(np.subtract(prev, cur)), initial=0.0))
            if cert <= tol:
                return prev, [{"interval": [p.lo, p.hi], "nodes": n + extra - step,
                               "certifying_nodes": n + extra}
                              for p, n in zip(nu.ac_pieces, sizes)], cert
            best = min(best, cert)
        prev = cur
    reached = f"best agreement {best:.2g}" if best < math.inf else "no rule pair completed"
    raise NumericError(f"N={n_coeffs} not certified within {_MAX_NODES} nodes per piece: "
                       f"{reached}, target {tol:.2g} (1e-12 x scale)")


def _reconstruct(nu: SpectralMeasure, n_coeffs: int, gated: bool):
    """(window [0, N], rules, certificate): if `gated`, of the mass rules where
    5N <= n, else, for a measure of the canonical class, of the free
    recurrence (one band) or its pullback rule (rules and certificate None);
    otherwise, or on a `NumericError` there, of one `_certified` run."""
    if n_coeffs < 0:
        raise ValueError("n_coeffs must be >= 0")
    mass = total_mass(nu)
    if mass <= 0:
        raise ValueError("measure must have positive mass")
    pairs, mass_rules = None, nu._mass_rules
    if gated and mass_rules and all(5 * n_coeffs <= rule[0] for rule in mass_rules):
        try:
            pairs = _jacobi(nu, *map(np.concatenate, zip(*(r[1:3] for r in mass_rules))), n_coeffs)
        except NumericError:
            pass
    found = gated and not pairs and _canonical_bands(nu)
    if found:
        try:
            if len(found[0]) == 1:      # Delta is affine: nu's ac part is K's semicircle
                (c, d), = found[0].tolist()
                pairs = _jacobi(nu, None, None, n_coeffs, 2, ((c + d) / 2, (d - c) / 4))
            else:
                rule = _pullback_rule(nu, n_coeffs + (3 if nu.atoms else 2), found)
                pairs = _jacobi(nu, *rule, n_coeffs, orders=2)
        except NumericError:
            pass
    (alphas, betas), rules, cert = (pairs, None, None) if pairs else _certified(nu, n_coeffs)
    window = np.empty((2, n_coeffs + 1))
    window[0, 0], window[1, 0] = math.sqrt(mass), 0.0
    window[0, 1:], window[1, 1:] = betas, alphas
    return JacobiCoefficients(0, n_coeffs, window[0], window[1], Tail.free()), rules, cert


def reconstruct_coefficients(nu: SpectralMeasure, n_coeffs: int) -> JacobiCoefficients:
    """Recover (a_0; a_1, b_1; ...; a_N, b_N) from the half-line measure.

    a_0 = sqrt(total mass); the rest by the unreorthogonalized recurrence on
    a rule for the ac part, or in closed form on one band, atoms folded in
    afterwards.  The recurrence stays orthogonal where the rule resolves the
    depth (Paige); else its Bessel guard raises.  Three routes, in order:

    - The gate.  If 5N <= n for the n-node Fejer rule at which each ac
      piece's mass converged, it runs on those rules: degree 2N + 1 in t is
      frequency about pi N in the rule's variable 2 theta / pi, where Fejer
      is exact only to degree n - 1, and a frequency's Chebyshev tail needs
      some N^(1/3) degrees more (at N = n/4 the semicircle is off by 3e-11;
      no measure tried failed before n/4.1).
    - The exact route, with no certificate, for a measure of the canonical
      class (module docstring).  On one band [c, d] its ac part is the
      semicircle on it, with alpha_k = (c + d)/2 and beta_k = (d - c)/4 (N + 1
      of each with atoms, each atom folded in at O(N)).  On two or more it
      runs on its pullback rule with n = N + 2 nodes per band (N + 3 with
      atoms), exact to degree 2n - 1, in one density call and one pass of the
      recurrence.  Its nodes are solved to an ulp of their
      offset from the nearer band edge, and its weights formed from
      edge-relative distances, so rounding enters them relatively.  Two or
      more atoms are folded in both orders, which must agree to 1e-12 x
      scale.  Any `NumericError` on this route falls through to the next.
    - The certified rules.  Each piece gets Fejer's rule in theta with
      ceil(pi N + N^(1/3)) + n nodes, which resolves that frequency pi N,
      capped at `_MAX_NODES` minus the step.  A rule step = max(32,
      ceil(N/4)) nodes larger per piece certifies it: all N pairs must agree
      to 1e-12 x scale (the largest |t|), else both rules step up by that
      many nodes.

    Raises `ValueError` up front for an N whose N + 2 nodes exceed that cap
    on the certified route, and `NumericError`, naming the best agreement
    reached, if no pair within `_MAX_NODES` nodes per piece agrees;
    positivity is never silently clamped.
    """
    return _reconstruct(nu, n_coeffs, True)[0]


def coefficient_deviation(coeffs: JacobiCoefficients, a_ref: float, b_ref: float,
                          window: int) -> float:
    """max over |n| <= window (within the explicit window) of
    |a_n - a_ref| + |b_n - b_ref|."""
    lo = max(coeffs.n_lo, -window)
    hi = min(coeffs.n_hi, window)
    if lo > hi:
        raise ValueError("no coefficients inside the requested window")
    a, b = coeffs.arrays(lo, hi)
    return float(np.max(np.abs(a - a_ref) + np.abs(b - b_ref)))


def reconstruction_report(nu: SpectralMeasure, n_coeffs: int) -> tuple[JacobiCoefficients, dict]:
    """nu's certified reconstruction to depth N (never the shallow path) and
    {rules, certificate, min_offdiagonal} of that one run: per ac piece its
    interval, nodes and certifying nodes; the rules' largest difference
    (<= 1e-12 x scale); and min a_n, n >= 1, over the scale (None at N = 0)."""
    rec, rules, cert = _reconstruct(nu, n_coeffs, False)
    return rec, {"rules": rules, "certificate": cert, "min_offdiagonal":
                 float(rec.a_window[1:].min()) / _scale(nu) if n_coeffs else None}

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

Indexing: the returned window is [0, N] with a = (a_0, a_1, ..., a_N) and
b = (b_0, b_1, ..., b_N).  The site-0 diagonal b_0 is NOT determined by
half-line data; it is stored as 0.0 as a documented placeholder (use
`restrict(1, N)` to drop it for window comparisons with B != 0).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .measures import SpectralMeasure, _fejer_rule, _root_edges, total_mass
from .operators import JacobiCoefficients, Tail

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


def _jacobi(nu: SpectralMeasure, t, w, n_coeffs: int) -> tuple[np.ndarray, np.ndarray]:
    """(b_1..b_N, a_1..a_N) of nu with its ac part replaced by the rule of
    nodes t and weights w.  With atoms the recurrence goes one step deeper:
    the Gauss rule of that section matches the ac moments through degree
    2N + 1, which fixes the first N pairs once the atoms are folded in."""
    a, d = [0.0], []
    if nu.ac_pieces:
        alphas, betas = lanczos_tridiag(t, w, n_coeffs + 1 if nu.atoms else n_coeffs)
        if not nu.atoms:
            return alphas, betas
        a, d = [math.sqrt(float(np.sum(w)))] + betas[:-1].tolist() + [0.0], alphas.tolist()
    for x, mass in nu.atoms:
        _fold_atom(a, d, x, mass)
    if len(d) < n_coeffs + 1:
        raise ValueError(f"measure support ({len(d)} points) too small for N={n_coeffs}")
    betas = np.abs(a[1:n_coeffs + 1])
    if n_coeffs and betas.min() <= 1e-12 * _scale(nu):
        raise NumericError(f"breakdown: off-diagonal {betas.min()} (support too clustered)")
    return np.array(d[:n_coeffs]), betas


def _theta_rule(n: int, midpoint: bool) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Fejer or midpoint (theta_k = -pi/2 + (k - 1/2) pi/n,
    weight pi/n) rule in theta."""
    if midpoint:
        return (np.arange(n) + 0.5 - 0.5 * n) * (np.pi / n), np.full(n, np.pi / n)
    return _fejer_rule(n)


def _certified(nu: SpectralMeasure, n_coeffs: int):
    """((b_1..b_N, a_1..a_N), rule per piece, certificate) on the depth-sized
    rules that `reconstruct_coefficients` describes; one density call builds
    the rules of all pieces at each size."""
    if not nu.ac_pieces:
        return _jacobi(nu, None, None, n_coeffs), [], 0.0
    step = max(32, -(-n_coeffs // 4))
    if n_coeffs + 2 > _MAX_NODES - step:
        raise ValueError(f"the {_MAX_NODES}-node rule per piece is too small for N={n_coeffs}")
    kinds, fejer = _root_edges(nu), math.ceil(math.pi * n_coeffs + n_coeffs ** (1 / 3))
    sizes = [min((n_coeffs if mid else fejer) + rule[0], _MAX_NODES - step)
             for mid, rule in zip(kinds, nu._mass_rules)]
    prev, tol, best = None, 1e-12 * _scale(nu), math.inf
    for extra in range(0, _MAX_NODES - max(sizes) + 1, step):
        counts = [n + extra for n in sizes]
        th, w = (np.concatenate(parts) for parts in
                 zip(*(_theta_rule(n, mid) for n, mid in zip(counts, kinds))))
        index = np.repeat(np.arange(len(counts)), counts)
        try:
            cur = _jacobi(nu, *nu._rule(index, th, w), n_coeffs)
        except NumericError:
            cur = None
        if prev and cur:
            cert = float(np.max(np.abs(np.subtract(prev, cur)), initial=0.0))
            if cert <= tol:
                return prev, [{"interval": [p.lo, p.hi], "nodes": n + extra - step,
                               "rule": "midpoint" if mid else "fejer",
                               "certifying_nodes": n + extra}
                              for p, n, mid in zip(nu.ac_pieces, sizes, kinds)], cert
            best = min(best, cert)
        prev = cur
    reached = f"best agreement {best:.2g}" if best < math.inf else "no rule pair completed"
    raise NumericError(f"N={n_coeffs} not certified within {_MAX_NODES} nodes per piece: "
                       f"{reached}, target {tol:.2g} (1e-12 x scale)")


def _reconstruct(nu: SpectralMeasure, n_coeffs: int, gated: bool):
    """(window [0, N], rules, certificate): if `gated` and 5N <= n, of the
    mass rules (rules and certificate None), else of one `_certified` run."""
    if n_coeffs < 0:
        raise ValueError("n_coeffs must be >= 0")
    mass = total_mass(nu)
    if mass <= 0:
        raise ValueError("measure must have positive mass")
    pairs, mass_rules = None, nu._mass_rules
    if gated and mass_rules and all(5 * n_coeffs <= rule[0] for rule in mass_rules):
        t, w = mass_rules[0][1:3] if len(mass_rules) == 1 else (
            np.concatenate(part) for part in zip(*(rule[1:3] for rule in mass_rules)))
        try:
            pairs = _jacobi(nu, t, w, n_coeffs)
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
    a rule per ac piece, atoms folded in afterwards.  It stays orthogonal on
    a rule that resolves the depth (Paige), and the Bessel guard of
    `lanczos_tridiag` raises where it does not.  If 5N <= n for the n-node
    Fejer rule at which each ac piece's mass converged, it runs on those
    rules: degree 2N + 1 in t is frequency about pi N in the rule's variable
    2 theta / pi, where Fejer is exact only to degree n - 1, and a
    frequency's Chebyshev tail needs some N^(1/3) degrees more (at N = n/4
    the semicircle is off by 3e-11; no measure tried failed before n/4.1).
    Deeper, or on a failure there, a piece gets the midpoint rule in theta
    with N + n nodes if both its edges are square-root edges (exact for
    degree below about 2(N + n)), else Fejer with ceil(pi N + N^(1/3)) + n,
    which resolves that frequency pi N; each start is capped at
    `_MAX_NODES` minus the step.  A rule step = max(32, ceil(N/4)) nodes
    larger per piece certifies it: all N pairs must agree to 1e-12 x scale
    (the largest |t|), else both rules step up by that many nodes.  Raises
    `ValueError` up front for an N whose N + 2 nodes exceed that cap, and
    `NumericError`, naming the best agreement reached, if no pair within
    `_MAX_NODES` nodes per piece agrees; positivity is never silently
    clamped.
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
    interval, rule, nodes and certifying nodes; the rules' largest difference
    (<= 1e-12 x scale); and min a_n, n >= 1, over the scale (None at N = 0)."""
    rec, rules, cert = _reconstruct(nu, n_coeffs, False)
    return rec, {"rules": rules, "certificate": cert, "min_offdiagonal":
                 float(rec.a_window[1:].min()) / _scale(nu) if n_coeffs else None}

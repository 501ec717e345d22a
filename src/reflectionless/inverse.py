r"""Half-line coefficient reconstruction from a spectral measure.

The total mass gives the coupling a_0 (mass = a_0^2).  The normalized
measure is the delta_1 spectral measure of the half-line operator on sites
>= 1; its entries (b_1, a_1, b_2, ...) are the recurrence coefficients of
the measure's orthonormal polynomials, computed by Lanczos
tridiagonalization of multiplication-by-t on the discretized measure,
started from the constant vector, with full reorthogonalization: one
classical Gram-Schmidt pass against the whole basis per step, which the
breakdown test makes sufficient (see `lanczos_tridiag`).  The discretized
measure stays in arrays from the Gauss rule to the kernel.

Indexing: the returned window is [0, N] with a = (a_0, a_1, ..., a_N) and
b = (b_0, b_1, ..., b_N).  The site-0 diagonal b_0 is NOT determined by
half-line data; it is stored as 0.0 as a documented placeholder (use
`restrict(1, N)` to drop it for window comparisons with B != 0).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .measures import SpectralMeasure, _discretize, _support, moments, total_mass
from .operators import JacobiCoefficients, Tail

__all__ = ["reconstruct_coefficients", "coefficient_deviation", "lanczos_tridiag",
           "reconstruction_report", "coefficients_csv"]

# Gauss nodes per ac piece of the first discretization, and the cap that
# node doubling on breakdown stops at
_NODES_PER_PIECE = 400
_MAX_NODES = 3200


def lanczos_tridiag(support: np.ndarray, weights: np.ndarray,
                    n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients (alpha_1..alpha_n, beta_1..beta_n) of the
    probability measure sum w_i delta_{t_i}, by Lanczos with full
    reorthogonalization.  Raises on breakdown (support too small or
    clustered for the requested depth).

    Each step reorthogonalizes once, by classical Gram-Schmidt against the
    whole basis Q.  That is enough: after the three-term step, u lies in
    span(Q) only to rounding, about eps * scale * sqrt(k) with scale >= |t|,
    and a second pass changes anything only when the first cancels most of
    u (Daniel-Gragg-Kaufman-Stewart, Math. Comp. 30, 1976), i.e. when beta
    is that small.  The breakdown test beta <= 1e-12 * scale raises first
    (eps * sqrt(k) < 2e-14 for k <= 3200)."""
    t = np.asarray(support, dtype=float)
    w = np.asarray(weights, dtype=float)
    if t.shape != w.shape or t.ndim != 1:
        raise ValueError("support and weights must be matching 1-d arrays")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    scale = max(1.0, float(np.max(np.abs(t))))
    q = np.sqrt(w)
    nrm = np.linalg.norm(q)
    if nrm == 0:
        raise ValueError("measure has no mass")
    # one allocation for the whole basis: growing it per step costs a fresh
    # mmap and page faults of up to (n_steps x len(t)) doubles every step
    basis = np.empty((n_steps + 1, t.size))
    basis[0] = q / nrm
    alphas, betas = np.empty(n_steps), np.empty(n_steps)
    for k in range(n_steps):
        q = basis[k]
        u = t * q
        if k:
            u -= betas[k - 1] * basis[k - 1]
        alphas[k] = q @ u
        u -= alphas[k] * q
        qm = basis[:k + 1]
        u -= qm.T @ (qm @ u)
        beta = float(np.linalg.norm(u))
        if beta <= 1e-12 * scale:
            raise NumericError(
                f"Lanczos breakdown at step {k + 1}: off-diagonal {beta} "
                "(discretization too coarse for the requested depth)")
        betas[k] = beta
        np.divide(u, beta, out=basis[k + 1])
    return alphas, betas


def reconstruct_coefficients(nu: SpectralMeasure, n_coeffs: int) -> JacobiCoefficients:
    """Recover (a_0; a_1, b_1; ...; a_N, b_N) from the half-line measure.

    a_0 = sqrt(total mass); the rest from the Lanczos recurrence of the
    normalized discretized measure.  If 4N <= n for the n-node Gauss rule
    at which each ac piece's mass converged, Lanczos runs on those rules
    and the atoms (Gautschi's discretized Stieltjes procedure): the mass
    had converged at n/2 nodes, so n/2 resolve the density, and the other
    n/2 carry the polynomials of degree 2N, as Gauss-Legendre in theta
    needs about one node per degree.  Otherwise, or if Lanczos breaks down
    there, the measure is discretized at `_NODES_PER_PIECE` nodes per piece,
    doubled on breakdown up to `_MAX_NODES` before raising; positivity is
    never silently clamped.
    """
    if n_coeffs < 0:
        raise ValueError("n_coeffs must be >= 0")
    mass = total_mass(nu)
    if mass <= 0:
        raise ValueError("measure must have positive mass")
    a0 = float(np.sqrt(mass))
    n = _NODES_PER_PIECE
    reuse = not nu.is_atomic() and all(4 * n_coeffs <= rule[0] for rule in nu._mass_rules)
    while True:
        support, weights = (_support(nu, (r[1:3] for r in nu._mass_rules)) if reuse
                            else _discretize(nu, n))
        weights /= mass
        if len(support) < n_coeffs + 1:
            if nu.is_atomic() or n >= _MAX_NODES:
                raise ValueError(
                    f"measure support ({len(support)} points) too small for N={n_coeffs}")
            n *= 2
            continue
        try:
            alphas, betas = lanczos_tridiag(support, weights, n_coeffs)
            break
        except NumericError:
            if not reuse and (nu.is_atomic() or n >= _MAX_NODES):
                raise
            n *= 1 if reuse else 2
            reuse = False
    a = np.concatenate(([a0], betas))
    b = np.concatenate(([0.0], alphas))
    return JacobiCoefficients(0, n_coeffs, a, b, Tail.free())


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


def reconstruction_report(nu: SpectralMeasure, coeffs: JacobiCoefficients) -> dict:
    """Consistency summary {a0, mass, moments_checked, max_moment_error}: the
    spectral measure of the reconstructed finite section must reproduce the
    first 2N moments of the input (relative to their size)."""
    from scipy.linalg import eigh_tridiagonal

    n = coeffs.n_hi
    mass = total_mass(nu)
    exact = moments(nu, max(2 * n - 1, 0)) / mass
    if n >= 1:
        off, diag = coeffs.arrays(1, n)
        # MRRR, so the figure does not depend on scipy's default driver
        lam, vec = eigh_tridiagonal(diag, off[:-1], lapack_driver="stemr")
        section = np.array([np.sum(vec[0, :] ** 2 * lam**k)
                            for k in range(len(exact))])
        err = float(np.max(np.abs(section - exact) / np.maximum(1.0, np.abs(exact))))
    else:
        err = 0.0
    return {"a0": coeffs.a(0), "mass": mass,
            "moments_checked": len(exact), "max_moment_error": err}


def coefficients_csv(coeffs: JacobiCoefficients) -> str:
    """CSV text of (n, a_n, b_n) over the explicit window."""
    lines = ["n,a,b"]
    rows = zip(range(coeffs.n_lo, coeffs.n_hi + 1), coeffs.a_window.tolist(),
               coeffs.b_window.tolist())
    lines += [f"{n},{a!r},{b!r}" for n, a, b in rows]
    return "\n".join(lines) + "\n"

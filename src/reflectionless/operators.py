r"""Whole-line and half-line Jacobi operators.

A Jacobi matrix acts on ell^2(Z) by (Ju)_n = a_n u_{n+1} + a_{n-1} u_{n-1}
+ b_n u_n with a_n > 0.  Coefficients are stored as an explicit window plus
a tail descriptor (free, constant, or periodic), which makes diagonal Green
functions computable two independent ways:

* the resolvent entry of a finite section with Dirichlet ends, sized by a
  Combes-Thomas decay estimate, and
* the Weyl m-function recursion m_k = 1/(b_k - z - a_k^2 m_{k+1}) closed at
  the tails by the attracting fixed point of the one-period Moebius map.

Both read their coefficients as arrays over a site range.  The recursion
serves a run of sites from one walk per side over the effective window (end
sites equal to the tail are not walked) and one tail solve per side, on one
energy or elementwise over an ndarray of energies, real ones (t + i0) too.
The section walks its explicit sites and takes each tail's whole periods as
one power of the period's transfer matrix, in closed form, so its cost does
not grow with its size; it solves no tail fixed point, and so checks that solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import NumericError
from .sets import CompactSet

__all__ = [
    "Tail",
    "JacobiCoefficients",
    "shift",
    "coefficient_metric",
    "green_diag",
    "reflectionless_residual",
]

_TRUNCATION_TOL = 1e-10  # resolvent-entry error that sizes the truncated section


@dataclass(frozen=True)
class Tail:
    """Coefficient values outside the explicit window: one period of (a, b).

    A site n outside the window of the operator that holds the tail reads
    a_block/b_block at (n - n_lo) mod p, one phase on both sides of the
    window.  The free tail is the period (1, 0) and a constant tail is any
    other period of length 1, so equal tails compare equal however they
    were built.
    """

    a_block: tuple[float, ...] = (1.0,)
    b_block: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        a, b = tuple(map(float, self.a_block)), tuple(map(float, self.b_block))
        if len(a) != len(b) or not a:
            raise ValueError("tail needs equal-length nonempty blocks")
        if not all(0 < x < math.inf for x in a) or not all(map(math.isfinite, b)):
            raise ValueError("tail needs finite a > 0 and finite b")
        block = np.array((a, b))       # rows a, b of one period, shared by every operator
        block.flags.writeable = False
        for name, value in (("a_block", a), ("b_block", b), ("_block", block)):
            object.__setattr__(self, name, value)

    @classmethod
    @cache
    def free(cls) -> "Tail":
        return cls()

    @classmethod
    def constant(cls, a: float, b: float) -> "Tail":
        return cls((a,), (b,))

    @classmethod
    def periodic(cls, a_block, b_block) -> "Tail":
        return cls(a_block, b_block)

    @property
    def period(self) -> int:
        return len(self.a_block)

    def to_dict(self) -> dict:
        if self.period > 1:
            return {"kind": "periodic", "a": list(self.a_block), "b": list(self.b_block)}
        if self == Tail.free():
            return {"kind": "free"}
        return {"kind": "constant", "a": self.a_block[0], "b": self.b_block[0]}

    @classmethod
    def from_dict(cls, data: dict) -> "Tail":
        kind = data["kind"]
        if kind == "free":
            return cls.free()
        if kind == "constant":
            return cls.constant(data["a"], data["b"])
        if kind == "periodic":
            return cls.periodic(data["a"], data["b"])
        raise ValueError(f"unknown tail kind {kind!r}")


@dataclass(frozen=True, eq=False)
class JacobiCoefficients:
    """Bounded two-sided coefficient sequences (a_n > 0, b_n real): explicit
    values on the window [n_lo, n_hi], held as read-only numpy arrays, and a
    tail descriptor outside."""

    n_lo: int
    n_hi: int
    a_window: np.ndarray
    b_window: np.ndarray
    tail: Tail = field(default_factory=Tail.free)
    _window: np.ndarray = field(init=False, repr=False)   # rows a_window, b_window

    def __post_init__(self):
        if self.n_lo > self.n_hi:
            raise ValueError("window indices require n_lo <= n_hi")
        ab = np.array([self.a_window, self.b_window], dtype=float)
        if ab.shape != (2, self.n_hi - self.n_lo + 1):
            raise ValueError("window arrays must match window size")
        if not (ab[0].min() > 0 and ab.max() < math.inf and ab[1].min() > -math.inf):
            raise ValueError("all a_n must be positive and all a_n, b_n finite")
        ab.flags.writeable = False
        for name, value in (("_window", ab), ("a_window", ab[0]), ("b_window", ab[1])):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JacobiCoefficients):
            return NotImplemented
        return ((self.n_lo, self.n_hi, self.tail) == (other.n_lo, other.n_hi, other.tail)
                and np.array_equal(self._window, other._window))

    def __hash__(self) -> int:
        return hash((self.n_lo, self.n_hi, self.tail, *self._window.ravel().tolist()))

    # -- factories ---------------------------------------------------------
    @classmethod
    def periodic(cls, a_block, b_block, n_lo: int = 0) -> "JacobiCoefficients":
        """Globally periodic operator whose window holds one block starting
        at n_lo."""
        tail = Tail.periodic(a_block, b_block)
        p = tail.period
        return cls(n_lo, n_lo + p - 1, tail.a_block, tail.b_block, tail)

    # -- accessors ----------------------------------------------------------
    def a(self, n: int) -> float:
        if self.n_lo <= n <= self.n_hi:
            return self.a_window.item(n - self.n_lo)
        return self.tail._block.item(0, (n - self.n_lo) % self.tail.period)

    def b(self, n: int) -> float:
        if self.n_lo <= n <= self.n_hi:
            return self.b_window.item(n - self.n_lo)
        return self.tail._block.item(1, (n - self.n_lo) % self.tail.period)

    def arrays(self, lo: int, hi: int) -> np.ndarray:
        """Rows (a, b) on lo..hi inclusive, one new (2, hi - lo + 1) array: tail
        blocks tiled from n_lo, the window slice copied over them."""
        phase = np.arange(lo - self.n_lo, hi + 1 - self.n_lo) % self.tail.period
        ab = self.tail._block.take(phase, axis=1)
        i, k = max(lo, self.n_lo), min(hi, self.n_hi) + 1
        if i < k:
            ab[:, i - lo:k - lo] = self._window[:, i - self.n_lo:k - self.n_lo]
        return ab

    def restrict(self, lo: int, hi: int) -> "JacobiCoefficients":
        """Explicit window narrowed/extended to lo..hi (values from `arrays`),
        tail blocks rotated to keep their phase: the same operator when lo..hi
        covers the old window."""
        tail = Tail(*np.roll(self.tail._block, self.n_lo - lo, axis=1))
        return JacobiCoefficients(lo, hi, *self.arrays(lo, hi), tail)

    def to_dict(self) -> dict:
        return {"n_lo": self.n_lo, "n_hi": self.n_hi,
                "a": self.a_window.tolist(), "b": self.b_window.tolist(),
                "tail": self.tail.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "JacobiCoefficients":
        n_lo, n_hi = data["n_lo"], data["n_hi"]
        if type(n_lo) is not int or type(n_hi) is not int:     # refuses floats and bools
            raise ValueError("window indices n_lo and n_hi must be integers")
        return cls(n_lo, n_hi, data["a"], data["b"], Tail.from_dict(data["tail"]))


def shift(j: JacobiCoefficients, k: int) -> JacobiCoefficients:
    """The shifted operator S^k J with coefficients a'_n = a_{n+k},
    b'_n = b_{n+k}."""
    return JacobiCoefficients(j.n_lo - k, j.n_hi - k, j.a_window, j.b_window, j.tail)


def coefficient_metric(j1: JacobiCoefficients, j2: JacobiCoefficients) -> float:
    """d(J, J') = sum_n 2^{-|n|} (|a_n - a'_n| + |b_n - b'_n|), in closed form.

    Past both windows and site 0 the differences repeat with one common
    period p = lcm(p1, p2), so the sum over each side beyond them is one
    period of it times 1 / (1 - 2^-p).
    """
    p = math.lcm(j1.tail.period, j2.tail.period)
    lo, hi = min(j1.n_lo, j2.n_lo, 0) - p, max(j1.n_hi, j2.n_hi, 0) + p
    (a1, b1), (a2, b2) = j1.arrays(lo, hi), j2.arrays(lo, hi)
    n = np.arange(lo, hi + 1)
    weights = 2.0 ** -np.abs(n)
    weights[(n < lo + p) | (n > hi - p)] /= 1.0 - 2.0 ** -p
    return float(weights @ (np.abs(a1 - a2) + np.abs(b1 - b2)))


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------

def _tail_m(pairs, z):
    """m at the first site of an infinite half line whose (a, b) repeat the
    one-period pairs of the iterator toward the far end, elementwise when z
    is an array: a fixed point of the one-period Moebius map
    w -> (m00 w + m01)/(m10 w + m11).

    For Im z > 0 that map contracts the upper half plane, and m is its attracting
    fixed point, as is m(z + i0) at real z in a gap of the tail.  On a band the two
    tie in modulus as a conjugate pair, and m(z + i0) is the one with Im m > 0 (m is
    Herglotz); a tie with none above the axis, as at a band edge, is refused.
    m10 = -a_p^2 det(J' - z), J' the Jacobi block of the first p - 1 sites of the
    period, has real roots only, so it is nonzero for Im z > 0.  Plain arithmetic,
    builtin abs and ** 0.5 keep a scalar z in Python complex numbers.
    """
    a, b = next(pairs)
    m00, m01, m10, m11 = 0.0, 1.0, -a * a, b - z     # the first pair's matrix
    for a, b in pairs:
        # compose with [[0, 1], [-a^2, b - z]] on the right
        q, c = -a * a, b - z
        m00, m01, m10, m11 = m01 * q, m00 + m01 * c, m11 * q, m10 + m11 * c
    disc = ((m11 - m00) ** 2 + 4.0 * m01 * m10) ** 0.5
    r1 = ((m00 - m11) + disc) / (2.0 * m10)
    r2 = ((m00 - m11) - disc) / (2.0 * m10)
    d1, d2 = abs(m10 * r1 + m11), abs(m10 * r2 + m11)
    pick1, pick2 = d1 > d2, d1 <= d2        # max(d1, d2) = d1 * pick1 + d2 * pick2
    tie = abs(d1 - d2) <= 1e-13 * (d1 * pick1 + d2 * pick2)
    if tie is True or tie is not False and np.count_nonzero(tie):   # builtin bools skip numpy
        pick1 = r1.imag > 0 if tie is True else np.greater(r1.imag, 0.0, out=pick1, where=tie)
        pick2 = r2.imag > 0 if tie is True else np.greater(r2.imag, 0.0, out=pick2, where=tie)
        if np.count_nonzero(tie > (pick1 | pick2)):      # a tie with no root above the axis
            raise NumericError("tail fixed points indistinguishable (z at a band edge of the tail)")
    return r1 * pick1 + r2 * pick2


def _half_line_m(a, b, k0, k1, e, p, m_e, z):
    """[m_k for k = k1 down to k0], 1 <= k0 <= k1, of m_k = 1/(b_k - z - a_k^2 m_{k+1}) on
    lists whose (a, b) repeat with period p from index e on: one walk down from the tail's
    m_e = m_{e+p}."""
    ms, m, top = [], m_e, e - 1
    if k1 >= e:
        tail = [m_e] * p        # m_e..m_{e+p-1}, walked down from m_{e+p} = m_e
        for k in range(e + p - 1, e, -1):
            tail[k - e] = 1.0 / (b[k] - z - a[k] * a[k] * tail[(k + 1 - e) % p])
        ms = [tail[(k - e) % p] for k in range(k1, max(k0, e) - 1, -1)]
    for k in range(min(k1, e - 1), k0 - 1, -1):      # walk on from top down to k
        for a_k, b_k in zip(a[top:k - 1:-1], b[top:k - 1:-1]):
            m = 1.0 / (b_k - z - a_k * a_k * m)
        ms.append(m)
        top = k - 1
    return ms


def _green_sites(j: JacobiCoefficients, n0: int, n1: int, z) -> list:
    """[g_n(z) for n = n0..n1], z complex or an ndarray, from one `arrays` call
    and one m-function sweep per side.  The left sweep is the right one on the
    lists reflected about a site r >= n1, index i holding b_{r - i} and a_{r - i - 1}.
    Each tail is solved once, next to the effective window w0..w1: the window
    less its end sites equal to the in-phase tail, so at sites fixed by the
    operator alone.  If all are, each tail starts at a multiple of p past
    n0..n1 (every such start reads the same period) and no site is walked.
    One solve serves both sides when their periods read alike, as at p = 1."""
    p = j.tail.period
    lo = min(n0, j.n_lo) - 1 - p        # the left tail repeats from lo + p down
    a, b = j.arrays(lo, max(n1, j.n_hi) + p).tolist()     # site s at index s - lo
    c0, c1, w0, w1 = n0 - lo, n1 - lo, j.n_lo - lo, j.n_hi - lo
    while w1 >= w0 and a[w1] == a[w1 + p] and b[w1] == b[w1 + p]:
        w1 -= 1
    if w1 < w0:     # periodic throughout: each tail from a multiple of p past n0..n1
        w0, w1 = n1 + (-n1) % p - lo, n0 - (n0 + 1) % p - lo
    while w0 <= w1 and a[w0] == a[w0 - p] and b[w0] == b[w0 - p]:
        w0 += 1
    r = max(c1, w0 - 1)         # the lists reflected about r, and w0 - 1 there
    ra, rb, e, f = a[r - 1::-1], b[r::-1], w1 + 1, r + 1 - w0
    right, left = (a[e:e + p], b[e:e + p]), (ra[f:f + p], rb[f:f + p])     # one period each
    m_right = _tail_m(zip(*right), z)
    m_left = m_right if left == right else _tail_m(zip(*left), z)
    mp = _half_line_m(a, b, c0 + 1, c1 + 1, e, p, m_right, z)
    mm = _half_line_m(ra, rb, r - c1 + 1, r - c0 + 1, f, p, m_left, z)
    return [1.0 / (b[c] - z - a[c] * a[c] * mp[c1 - c] - a[c - 1] * a[c - 1] * mm[c - c0])
            for c in range(c0, c1 + 1)]


def _truncation_size(j: JacobiCoefficients, z: complex) -> int:
    """Window half-width giving resolvent-entry error below
    `_TRUNCATION_TOL`, from the Combes-Thomas bound
    |G(m, n)| <= (2/eta) e^{-gamma |m-n|} with gamma = log(1 + eta/(4 sup a))."""
    eta = z.imag
    amax = max(float(j.a_window.max()), *j.tail.a_block)     # sup a_n
    gamma = math.log1p(eta / (4.0 * amax))
    c = 8.0 * amax / (eta * eta)
    return math.ceil(math.log(max(c / _TRUNCATION_TOL, 2.0)) / gamma) + 5


def _section_m(a, b, e, p, count, z):
    """m_0 of m_k = 1/(b_k - z - a_k^2 m_{k+1}) on sites 0..count-1, closed by
    the Dirichlet end m_count = 0, on lists of at least e + 2p sites whose
    (a, b) repeat with period p from index e on.

    Past s = e + ((count - e) mod p) lie q whole periods, so m_s = B^q(0) for
    the Moebius map of the period's transfer matrix B = T_s ... T_{s+p-1},
    T_k = [[0, 1], [-a_k^2, b_k - z]].  With l, l' the roots of B's
    characteristic polynomial and t = (l'/l)^q, Cayley-Hamilton gives B^q
    proportional to (1 - t) B - (l' - t l) I.  That is the same for either
    order of the roots; |l| >= |l'| keeps t finite.  Sites s - 1 down to 0
    are walked directly.
    """
    s = min(count, e + (count - e) % p)
    t0, t1, u0, u1 = 1.0, 0.0, 0.0, 1.0     # [[t0, t1], [u0, u1]] = T_k ... T_{s+p-1}
    for k in range(s + p - 1, s - 1, -1):     # k = s+p-1 down to s
        c, q = b[k] - z, a[k] * a[k]
        t0, t1, u0, u1 = u0, u1, c * u0 - q * t0, c * u1 - q * t1
    root = cmath.sqrt((t0 - u1) ** 2 + 4.0 * t1 * u0)
    small, big = sorted((0.5 * (t0 + u1 - root), 0.5 * (t0 + u1 + root)), key=abs)
    t = (small / big) ** ((count - s) // p)
    m = (1.0 - t) * t1 / ((1.0 - t) * u1 - small + t * big)
    for k in range(s - 1, -1, -1):
        m = 1.0 / (b[k] - z - a[k] * a[k] * m)
    return m


def green_diag(j: JacobiCoefficients, n: int, z: complex,
               method: str = "recursion") -> complex:
    """Diagonal Green function g_n(z) = <delta_n, (J - z)^{-1} delta_n>,
    Im z > 0.

    method "recursion" (default): Weyl half-line recursion closed at both
    tails; exact up to roundoff for free/constant/periodic tails, stable
    down to tiny Im z.  method "truncation": resolvent entry of the section
    n - h..n + h with Dirichlet ends, h = `_truncation_size(j, z)` sized by
    the Combes-Thomas estimate for an error of `_TRUNCATION_TOL`, at a cost
    that does not depend on h (`_section_m` on each side of n).
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise ValueError("green_diag requires a finite z with Im z > 0")
    if method == "recursion":
        return _green_sites(j, n, n, z)[0]
    if method == "truncation":
        half, p = _truncation_size(j, z), j.tail.period
        c = max(n - j.n_lo, j.n_hi - n, 0) + 2 * p + 1
        a, b = j.arrays(n - c, n + c).tolist()           # site n at index c
        m_right = _section_m(a[c + 1:], b[c + 1:], max(j.n_hi - n, 0), p, half, z)
        m_left = _section_m(a[c - 2::-1], b[c - 1::-1], max(n - j.n_lo, 0), p, half, z)
        return 1.0 / (b[c] - z - a[c] * a[c] * m_right - a[c - 1] * a[c - 1] * m_left)
    raise ValueError(f"unknown method {method!r}")


def reflectionless_residual(j: JacobiCoefficients, m_set: CompactSet,
                            grid: int = 100, sites: range = range(-2, 3)) -> float:
    """max over interior grid points t of M and the given sites of
    |Re g_n(t + i0)|, read on the real axis: exact tail m-functions at t + i0
    (`_tail_m`), then one walk per side at real t over every site and point.
    Small residuals certify approximate membership in the reflectionless
    class on M; O(1) values certify violation.  A band edge of the tail, or
    a non-finite g (t an eigenvalue of a half line), raises `NumericError`."""
    n0 = min(sites, default=0)
    with np.errstate(all="ignore"):
        g = _green_sites(j, n0, max(sites), m_set.interior_grid(grid) + 0j) if sites else []
    g = np.array([g[n - n0] for n in sites])
    if not np.isfinite(g).all():
        raise NumericError("non-finite Green function in the reflectionless residual")
    return float(np.abs(g.real).max(initial=0.0))

r"""Whole-line and half-line Jacobi operators.

A Jacobi matrix acts on ell^2(Z) by (Ju)_n = a_n u_{n+1} + a_{n-1} u_{n-1}
+ b_n u_n with a_n > 0.  Coefficients are stored as an explicit window plus
a tail descriptor (free, constant, or periodic), which makes diagonal Green
functions computable two independent ways:

* the resolvent entry of a finite section with Dirichlet ends, sized by a
  Combes-Thomas decay estimate, and
* the Weyl m-function recursion m_k = 1/(b_k - z - a_k^2 m_{k+1}) closed at
  both tails by the two fixed points of the right tail's one-period Moebius
  map: the attracting one is the right tail's m, the other gives the left's.

Both read their coefficients as arrays over a site range.  The recursion
serves a run of sites from one walk per side over the effective window (end
sites equal to the tail are not walked) and one tail solve, on one energy or
over an ndarray of energies, real ones (t + i0) too.
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
    "green_diag",
    "reflectionless_residual",
]

_TRUNCATION_TOL = 1e-10  # resolvent-entry error that sizes the truncated section


@dataclass(frozen=True, slots=True)
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
    _block: np.ndarray = field(init=False, repr=False, compare=False)

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

    def __reduce__(self):       # rebuilt from the blocks, so a copy's _block is read-only too
        return type(self), (self.a_block, self.b_block)

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


@dataclass(frozen=True, eq=False, init=False, slots=True)
class JacobiCoefficients:
    """Bounded two-sided coefficient sequences (a_n > 0, b_n real): explicit
    values on the window [n_lo, n_hi], held as one read-only (2, w) array whose
    rows are `a_window` and `b_window`, and a tail descriptor outside."""

    n_lo: int
    n_hi: int
    tail: Tail
    _window: np.ndarray     # rows a_n, b_n on n_lo..n_hi

    def __init__(self, n_lo: int, n_hi: int, a_window, b_window, tail: Tail = Tail.free()):
        if n_lo > n_hi:
            raise ValueError("window indices require n_lo <= n_hi")
        ab = np.array([a_window, b_window], dtype=float)
        if ab.shape != (2, n_hi - n_lo + 1):
            raise ValueError("window arrays must match window size")
        if not (ab[0].min() > 0 and ab.max() < math.inf and ab[1].min() > -math.inf):
            raise ValueError("all a_n must be positive and all a_n, b_n finite")
        ab.flags.writeable = False
        for name, value in (("n_lo", n_lo), ("n_hi", n_hi), ("tail", tail), ("_window", ab)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.n_lo, self.n_hi, *self._window, self.tail)

    @property
    def a_window(self) -> np.ndarray:
        return self._window[0]

    @property
    def b_window(self) -> np.ndarray:
        return self._window[1]

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
            return self._window.item(0, n - self.n_lo)
        return self.tail._block.item(0, (n - self.n_lo) % self.tail.period)

    def b(self, n: int) -> float:
        if self.n_lo <= n <= self.n_hi:
            return self._window.item(1, n - self.n_lo)
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
        a, b = self._window.tolist()
        return {"n_lo": self.n_lo, "n_hi": self.n_hi, "a": a, "b": b, "tail": self.tail.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "JacobiCoefficients":
        n_lo, n_hi = data["n_lo"], data["n_hi"]
        if type(n_lo) is not int or type(n_hi) is not int:     # refuses floats and bools
            raise ValueError("window indices n_lo and n_hi must be integers")
        return cls(n_lo, n_hi, data["a"], data["b"], Tail.from_dict(data["tail"]))


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------

def _tail_m(a, b, d, z):
    """(m_+(e), m_-(e - 1 + d)), 0 <= d < p, elementwise for an array z, for the periodic
    operator whose one period from site e holds the lists a, b, from the fixed points of the
    one-period Moebius map w -> (m00 w + m01)/(m10 w + m11) of m_k = 1/(b_k - z - a_k^2
    m_{k+1}): w_e = -psi_e/(a_{e-1} psi_{e-1}) of the two Floquet solutions psi (Teschl,
    Jacobi Operators, ch. 7).  m_+(e) is the attracting one for Im z > 0 and in a gap, and on
    a band, where they tie in modulus, the one with Im m > 0 (a tie with none above the axis,
    a band edge, is refused).  With h = (m11 - m00)/2, s = +-(h^2 + m01 m10)^(1/2) signed so
    that |h + s| >= |s|, and c = m11 - h, they are m01/(h + s) and -(h + s)/m10, of
    eigenvalues c +- s.  The other, x/y, is 1/(a_{e-1}^2 m_-(e - 1)), a_{e-1} = a_{e+p-1}.
    For d >= 1, m_-(e) = x/((b_e - z) x - y) is walked d - 1 sites on by m_-(k) = 1/(b_k - z -
    a_{k-1}^2 m_-(k - 1)); no step divides by m10 or m01, which vanish at eigenvalues of the
    blocks e..e+p-2 and e+1..e+p-1.  At a real z, m_-(e - 1) is infinite where m01 vanishes
    and m_-(e) where m10 does; a walk that meets an infinite m is redone by `_green_sites`."""
    m00, m01, m10, m11 = 0.0, 1.0, -a[0] * a[0], b[0] - z     # site e's matrix
    for a_k, b_k in zip(a[1:], b[1:]):
        q, c = -a_k * a_k, b_k - z      # compose with [[0, 1], [q, c]] on the right
        m00, m01, m10, m11 = m01 * q, m00 + m01 * c, m11 * q, m10 + m11 * c
    h, array = 0.5 * (m11 - m00), isinstance(z, np.ndarray)
    s = (h * h + m01 * m10) ** 0.5
    flip = (h.conjugate() * s).real < 0       # makes Re(conj(h) s) >= 0
    s = np.negative(s, out=s, where=flip) if array else -s if flip else s
    q, c = h + s, m11 - h
    r1, d1, d2 = m01 / q, abs(c + s), abs(c - s)
    pick1, tie = d1 > d2, abs(d1 - d2) <= 1e-13 * d1
    if tie is True or tie is not False and np.count_nonzero(tie):   # builtin bools skip numpy
        pick1 = r1.imag > 0 if tie is True else np.greater(r1.imag, 0.0, out=pick1, where=tie)
    m = np.where(pick1, r1, q / -m10) if array else r1 if pick1 else q / -m10
    if tie is not False and np.count_nonzero(tie > (m.imag > 0)):     # no root above the axis
        raise NumericError("tail fixed points indistinguishable (z at a band edge of the tail)")
    if len(a) == 1:     # a one-site period is its own mirror image: m_-(e - 1) = m_+(e)
        return m, m
    x, y = ((np.where(pick1, -q, m01), np.where(pick1, m10, q)) if array
            else (-q, m10) if pick1 else (m01, q))      # the other root is x/y
    w = y / (a[-1] * a[-1] * x) if d == 0 else x / ((b[0] - z) * x - y)  # m_-(e - 1 + min(d, 1))
    for k in range(1, d):
        w = 1.0 / (b[k] - z - a[k - 1] * a[k - 1] * w)
    return m, w


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


def _green_sites(j: JacobiCoefficients, n0: int, n1: int, z):
    """[g_n(z) for n = n0..n1], a list for a complex z and one sites x energies array
    for an ndarray z (`_walk_sites`).  At a real z where a walked m is infinite (z an
    eigenvalue of the half line cut there), complex arithmetic raises ZeroDivisionError
    or makes NaN of the next m, which is exactly 0.  Such a z lies in a gap of each
    walked half line, where every m is real, so its points are walked again in real
    arithmetic: there 1/0 = inf and 1/(c - a^2 inf) = 0."""
    if not isinstance(z, np.ndarray):
        try:
            return _walk_sites(j, n0, n1, z)
        except ZeroDivisionError:
            return _green_sites(j, n0, n1, np.array([z]))[:, 0].tolist()
    with np.errstate(all="ignore"):
        g = _walk_sites(j, n0, n1, z)
        if not cmath.isfinite(g.sum()):     # one reduction where every g_n is finite
            redo = (z.imag == 0.0) & ~np.isfinite(g).all(axis=0)
            if redo.any():
                g[:, redo] = _walk_sites(j, n0, n1, z.real[redo])
    return g


def _walk_sites(j: JacobiCoefficients, n0: int, n1: int, z):
    """`_green_sites` in the arithmetic of z, from one `arrays` call, one tail solve
    and one m-function sweep per side.  The left sweep is the right one on the lists
    reflected about a site r >= n1, index i holding b_{r - i} and a_{r - i - 1}.  The
    tails start next to the effective window w0..w1, the window less its end sites
    equal to the in-phase tail; if that is empty, at multiples of p past n0..n1, and
    no site is walked."""
    p = j.tail.period
    lo = min(n0, j.n_lo) - 1 - p        # the left tail repeats from lo + p down
    ab = j.arrays(lo, max(n1, j.n_hi) + p)
    a, b = ab.tolist()      # site s at index s - lo
    c0, c1, w0, w1 = n0 - lo, n1 - lo, j.n_lo - lo, j.n_hi - lo
    while w1 >= w0 and a[w1] == a[w1 + p] and b[w1] == b[w1 + p]:
        w1 -= 1
    if w1 < w0:     # periodic throughout: each tail from a multiple of p past n0..n1
        w0, w1 = n1 + (-n1) % p - lo, n0 - (n0 + 1) % p - lo
    while w0 <= w1 and a[w0] == a[w0 - p] and b[w0] == b[w0 - p]:
        w0 += 1
    r, e = max(c1, w0 - 1), w1 + 1      # the lists reflected about r, and w0 - 1 there
    m_right, m_left = _tail_m(a[e:e + p], b[e:e + p], (w0 - e) % p, z)
    mp = _half_line_m(a, b, c0 + 1, c1 + 1, e, p, m_right, z)
    mm = _half_line_m(a[r - 1::-1], b[r::-1], r - c1 + 1, r - c0 + 1, r + 1 - w0, p, m_left, z)
    if isinstance(z, np.ndarray):
        a2 = ab[0, c0 - 1:c1 + 1, None] ** 2       # a_n^2, n = n0 - 1..n1, as a column
        return 1.0 / (ab[1, c0:c1 + 1, None] - z - a2[1:] * np.array(mp[::-1])
                      - a2[:-1] * np.array(mm))
    return [1.0 / (b[c] - z - a[c] * a[c] * mp[c1 - c] - a[c - 1] * a[c - 1] * mm[c - c0])
            for c in range(c0, c1 + 1)]


def _truncation_size(j: JacobiCoefficients, z: complex) -> int:
    """Window half-width giving resolvent-entry error below
    `_TRUNCATION_TOL`, from the Combes-Thomas bound
    |G(m, n)| <= (2/eta) e^{-gamma |m-n|} with gamma = log(1 + eta/(4 sup a))."""
    eta = z.imag
    amax = max(float(j._window[0].max()), *j.tail.a_block)     # sup a_n
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
    """max over interior grid points t of M and the given sites (a range or any sequence
    of ints) of |Re g_n(t + i0)|, read on the real axis: exact tail m-functions at t + i0
    (`_tail_m`), then one walk per side at real t over every site and point.  Small
    residuals certify approximate membership in the reflectionless class on M; O(1) values
    certify violation.  An infinite m of a half line cut at a walked site (t one of its
    eigenvalues) makes the next m 0 (`_green_sites`).  It raises `NumericError` at a band
    edge of the tail and wherever a computed g_n(t) is not finite: at a pole of g_n (t an
    eigenvalue of J)."""
    if not sites:
        return 0.0
    n0, t = min(sites), m_set.interior_grid(grid).astype(complex)
    rows = slice(None, None, sites.step) if type(sites) is range else [n - n0 for n in sites]
    # rows n0..max(sites), then those of the sites
    g = np.asarray(_green_sites(j, n0, max(sites), t))[rows]
    if not np.isfinite(g).all():
        raise NumericError("non-finite Green function in the reflectionless residual")
    return float(np.abs(g.real).max())

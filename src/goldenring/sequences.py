"""Integer triple sequences with golden-exponent growth.

A seed is a pair of symmetric unimodular triples x_1, x_2 together with a
transition matrix M (det 1, neither symmetric nor skew-symmetric) such
that x_2*M*x_1 is again symmetric.  The window

    x_{k+2} = x_{k+1} * M_{k+1} * x_k,   M_{k+1} = M (k odd), transpose(M) (k even)

then consists of symmetric unimodular triples whose first entries grow
doubly exponentially with golden-ratio exponent.  The ratios
x_{k,1}/x_{k,0} converge to a real number xi, and

    theta = a11 + (a12 + a21)*xi + a22*xi**2

governs the multiplicative growth.  xi has a proved rational enclosure and
theta an interval enclosure computed from it, never floats.  The proof
(`xi_certificate`) is integer checks at the end of the window, made once
per system; `system.xi` rounds it outward to about ENDPOINT_BITS significant
bits, so its endpoints stay bounded however long the window.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul

from .errors import BoundExceeded, VerificationError
from .intervals import ENDPOINT_BITS, RationalInterval, decimal_text, parse_decimal

__all__ = [
    "SymTriple",
    "TransitionMatrix",
    "Seed",
    "TripleSystem",
    "symmetry_defect",
    "find_seeds",
    "check_window",
    "generate_system",
    "XiCertificate",
    "xi_certificate",
    "ratio_limit_enclosure",
    "growth_constant_enclosure",
    "verify_system",
    "VerificationReport",
]

DEFAULT_WINDOW = 22

# Longest window generate_system builds, set from cost.  Each term multiplies
# the entries' bit length by about gamma and the time by about 2.1: for the
# first bound-3 seed on a 2-vCPU Xeon VM with Python 3.11, K = 26 takes
# 0.06 s, K = 28 0.28 s and K = 30 1.3 s (largest entry 1,738,957 bits).
# K = 40 would form entries of about 2*10**8 bits.
WINDOW_BOUND = 30

# Decimal digits a loaded window may carry, and an eighth of that per entry.
# Parsing is superlinear: on a 2-vCPU Xeon VM with Python 3.11, parse_decimal
# takes 0.02 s for one 125,000-digit entry, 0.18 s for eight and 1.05 s for one
# of 999,000.  Every bound-3 window up to K = 27 fits: 970,650 digits in all,
# 123,578 in its largest entry.
MAX_WINDOW_DIGITS = 10**6

# Largest entry bound `seq --bound` searches, set from cost by the rule of
# WINDOW_BOUND.  find_seeds(B) tries (2B+1)**4 matrices per triple pair, and
# a --seed-index at or past the last seed runs the search to about its end:
# on a 2-vCPU Xeon VM with Python 3.11, a cold `seq --bound B --seed-index
# 100000000` takes 0.59-0.70 s at B = 8, 0.68-0.87 s at B = 9 (1,040 seeds),
# 1.20-1.54 s at B = 10 (1,888 seeds), 1.72-1.96 s at B = 11 and 13.4 s at
# B = 20.  The first seed alone takes 0.43 s at B = 9.
SEED_BOUND = 9

_DECIMAL = re.compile(r"-?[0-9]+")
# the decimal strings that decimal_text writes: parse and print give them back
_CANONICAL = re.compile(r"0|-?[1-9][0-9]*")

def _json_ints(obj, n: int, what: str) -> list[int]:
    """A JSON list of n integers (bools excluded), or ValueError."""
    if not (isinstance(obj, list) and len(obj) == n and all(type(v) is int for v in obj)):
        raise ValueError(f"{what} must be a list of {n} integers")
    return obj


@dataclass(frozen=True, slots=True)
class SymTriple:
    """Symmetric integer 2x2 matrix [[x0, x1], [x1, x2]] stored as a triple."""

    x0: int
    x1: int
    x2: int

    def det(self) -> int:
        return self.x0 * self.x2 - self.x1 * self.x1

    def coord(self, j: int) -> int:
        return (self.x0, self.x1, self.x2)[j]

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x0, self.x1, self.x2)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.x0, self.x1), (self.x1, self.x2))


@dataclass(frozen=True, slots=True)
class TransitionMatrix:
    a11: int
    a12: int
    a21: int
    a22: int

    def __post_init__(self):
        if self.det() != 1:
            raise ValueError("transition matrix must have determinant 1")
        if self.a12 == self.a21:
            raise ValueError("transition matrix must not be symmetric")
        if self.a11 == 0 and self.a22 == 0 and self.a12 == -self.a21:
            raise ValueError("transition matrix must not be skew-symmetric")

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def transpose(self) -> "TransitionMatrix":
        return TransitionMatrix(self.a11, self.a21, self.a12, self.a22)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a11, self.a12), (self.a21, self.a22))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a11, self.a12, self.a21, self.a22)


def _product_entries(left, mid, right):
    """Entries (p00, p01, p10, p11) of left * mid * right.

    Each factor is a 2x2 matrix read through `.rows()` (a `SymTriple` or a
    `TransitionMatrix`); its entries may be integers or polynomials.
    """
    (l00, l01), (l10, l11) = left.rows()
    (m00, m01), (m10, m11) = mid.rows()
    (r00, r01), (r10, r11) = right.rows()
    t00 = l00 * m00 + l01 * m10
    t01 = l00 * m01 + l01 * m11
    t10 = l10 * m00 + l11 * m10
    t11 = l10 * m01 + l11 * m11
    return (
        t00 * r00 + t01 * r10,
        t00 * r01 + t01 * r11,
        t10 * r00 + t11 * r10,
        t10 * r01 + t11 * r11,
    )


def symmetry_defect(M: TransitionMatrix, x: SymTriple, y: SymTriple) -> int:
    """p10 - p01 of x*M*y, which vanishes exactly when the product is symmetric.

    Grouped by the entries of y, so that it takes three products of an
    entry of x with one of y, where the entries of x*M*y take eight.
    Plain attribute reads, not `as_tuple()`: find_seeds calls it once per
    candidate, where the call overhead outweighs the products.
    """
    return (
        y.x0 * (M.a11 * x.x1 + M.a21 * x.x2)
        + y.x1 * ((M.a12 - M.a21) * x.x1 + M.a22 * x.x2 - M.a11 * x.x0)
        - y.x2 * (M.a12 * x.x0 + M.a22 * x.x1)
    )


@dataclass(frozen=True, slots=True)
class Seed:
    x1: SymTriple
    x2: SymTriple
    M: TransitionMatrix

    def __post_init__(self):
        if self.x1.det() != 1 or self.x2.det() != 1:
            raise ValueError("seed triples must have determinant 1")
        if symmetry_defect(self.M, self.x2, self.x1) != 0:
            raise ValueError("x2*M*x1 must be symmetric")

    def to_json(self) -> dict:
        return {
            "x1": list(self.x1.as_tuple()),
            "x2": list(self.x2.as_tuple()),
            "M": [list(r) for r in self.M.rows()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Seed":
        if not isinstance(obj, dict):
            raise ValueError("seed must be an object")
        rows = obj.get("M")
        if not (isinstance(rows, list) and len(rows) == 2):
            raise ValueError("seed M must be a list of 2 rows")
        return cls(
            SymTriple(*_json_ints(obj.get("x1"), 3, "seed x1")),
            SymTriple(*_json_ints(obj.get("x2"), 3, "seed x2")),
            TransitionMatrix(*(v for r in rows for v in _json_ints(r, 2, "a row of seed M"))),
        )


def _step_matrix(M: TransitionMatrix, n: int) -> TransitionMatrix:
    """The matrix that forms x_n from x_{n-1}, x_{n-2}: M at odd n, its transpose at even n."""
    return M if n % 2 else M.transpose()


def _extend(seed: Seed, window: list[SymTriple], upto: int):
    """Append x_n = x_{n-1} S_n x_{n-2} until the window holds `upto` terms.

    Write S_n = `_step_matrix(M, n)`, so S_{n+1} = S_n^T.  Every term is
    symmetric with det 1, so only p00, p01 and p11 of the product are formed:

    * Symmetry, by induction from x_1, x_2 and x_3 = x_2 M x_1, which `Seed`
      checks.  With x_{n-1}, x_{n-2} symmetric, x_{n-2} S_n^T x_{n-1} =
      (x_{n-1} S_n x_{n-2})^T = x_n^T, so x_{n+1} = x_n S_n^T x_{n-1} =
      x_{n-1} S_n x_n^T, whose transpose is x_n S_n^T x_{n-1} = x_{n+1}.
    * Determinant: det x_n = det x_{n-1} det S_n det x_{n-2} = 1 by
      induction, since `TransitionMatrix` and `Seed` refuse any other det.
    """
    while len(window) < upto:
        (m00, m01), (m10, m11) = _step_matrix(seed.M, len(window) + 1).rows()
        (l0, l1, l2), (r0, r1, r2) = window[-1].as_tuple(), window[-2].as_tuple()
        t0, t1 = l0 * m00 + l1 * m10, l0 * m01 + l1 * m11  # the rows of x_{n-1} S_n
        u0, u1 = l1 * m00 + l2 * m10, l1 * m01 + l2 * m11
        window.append(SymTriple(t0 * r0 + t1 * r1, t0 * r1 + t1 * r2, u0 * r1 + u1 * r2))


@dataclass(frozen=True)
class TripleSystem:
    """A window x_1 .. x_K from a seed; xi and theta are derived from it.

    K follows `check_window` however the system is built, so a window of
    fewer than 3 or more than WINDOW_BOUND terms is refused on construction.
    `certificate`, `xi` and `theta` are computed on first use, at any such
    K; a window that `xi_certificate` cannot prove raises VerificationError.

    `window_text` is the window's decimal text when `from_json` read it in
    canonical form, so `to_json` prints it back unconverted; it takes no
    part in equality or hashing.
    """

    seed: Seed
    window: tuple[SymTriple, ...]
    window_text: tuple[tuple[str, str, str], ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        check_window(len(self.window))

    @cached_property
    def certificate(self) -> XiCertificate:
        """The proof that encloses xi (see `xi_certificate`)."""
        return xi_certificate(self)

    @cached_property
    def xi(self) -> RationalInterval:
        """Enclosure of lim x_{k,1}/x_{k,0} (`ratio_limit_enclosure`)."""
        return ratio_limit_enclosure(self)

    @cached_property
    def theta(self) -> RationalInterval:
        """Enclosure of the growth constant, from `xi`."""
        return growth_constant_enclosure(self)

    @property
    def K(self) -> int:
        return len(self.window)

    def x(self, k: int) -> SymTriple:
        if not 1 <= k <= self.K:
            raise ValueError(f"index {k} outside window 1..{self.K}")
        return self.window[k - 1]

    def germ(self, i: int, j: int, k: int) -> int:
        """Window entry x_{2k+i, j} of the offset-i coordinate-j germ."""
        return self.x(2 * k + i).coord(j)

    def to_json(self) -> dict:
        """The seed, the window as decimal strings and the reported enclosures.

        A window loaded from canonical text (see `from_json`) echoes that
        text; any other window is converted with `decimal_text`.
        """
        if self.window_text is None:
            window = [[decimal_text(v) for v in t.as_tuple()] for t in self.window]
        else:
            window = [list(t) for t in self.window_text]
        return {
            "seed": self.seed.to_json(),
            "window": window,
            "xi": self.xi.to_json(),
            "theta": self.theta.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TripleSystem":
        """Read the seed and the window that `to_json` writes; nothing else.

        The window length follows `check_window`, as a generated one does,
        and is checked before any entry is converted.
        Window entries must be decimal strings, at most MAX_WINDOW_DIGITS
        characters in total and MAX_WINDOW_DIGITS // 8 in one entry
        (BoundExceeded otherwise); a wrong shape or value raises ValueError.
        When every entry is canonical, 0 or -?[1-9][0-9]*, the text is kept
        as `window_text`: `decimal_text` would print exactly those strings.
        Leading zeros or a -0 leave it unset, so `to_json` prints canonical text.
        """
        if not isinstance(obj, dict):
            raise ValueError("a window file must hold an object")
        seed = Seed.from_json(obj.get("seed"))
        rows = obj.get("window")
        if not (
            isinstance(rows, list)
            and all(isinstance(t, list) and len(t) == 3 for t in rows)
            and all(isinstance(v, str) for t in rows for v in t)
        ):
            raise ValueError("window must be a list of triples of decimal strings")
        check_window(len(rows))
        digits = sum(len(v) for t in rows for v in t)
        longest = max((len(v) for t in rows for v in t), default=0)
        if digits > MAX_WINDOW_DIGITS or longest > MAX_WINDOW_DIGITS // 8:
            raise BoundExceeded(
                f"window has {digits} digits, {longest} in one entry; the limits"
                f" are {MAX_WINDOW_DIGITS} and {MAX_WINDOW_DIGITS // 8}"
            )
        if not all(_DECIMAL.fullmatch(v) for t in rows for v in t):
            raise ValueError("window entries must be decimal integer strings")
        window = tuple(SymTriple(*map(parse_decimal, t)) for t in rows)
        canonical = all(_CANONICAL.fullmatch(v) for t in rows for v in t)
        return cls(seed, window, tuple(map(tuple, rows)) if canonical else None)


def _symmetric_unimodular(bound: int) -> list[SymTriple]:
    entries = product(range(-bound, bound + 1), repeat=3)
    return [SymTriple(*t) for t in entries if t[0] * t[2] - t[1] * t[1] == 1]


def _transition_matrices(bound: int) -> list[TransitionMatrix]:
    return [
        TransitionMatrix(a11, a12, a21, a22)
        for a11, a12, a21, a22 in product(range(-bound, bound + 1), repeat=4)
        if a11 * a22 - a12 * a21 == 1 and a12 != a21  # det 1, not symmetric
        and not (a11 == a22 == 0 and a12 == -a21)  # not skew-symmetric
    ]


def find_seeds(entry_bound: int, count: int | None = None) -> list[Seed]:
    """Exhaustive seed search over entries bounded by entry_bound.

    A candidate qualifies when x_2*M*x_1 is symmetric and the generated
    |x_{k,0}| are strictly increasing for k <= 8.  Results come in a fixed
    lexicographic order, up to `count` of them (all when count is None).
    """
    if entry_bound < 1 or (count is not None and count < 1):
        raise ValueError("entry_bound and count must be positive")
    seeds: list[Seed] = []
    triples = _symmetric_unimodular(entry_bound)
    mats = _transition_matrices(entry_bound)
    for x1 in triples:
        for x2 in triples:
            for M in mats:
                if symmetry_defect(M, x2, x1) != 0:
                    continue
                seed, window = Seed(x1, x2, M), [x1, x2]
                _extend(seed, window, 8)
                firsts = [abs(t.x0) for t in window]
                if all(firsts[k] < firsts[k + 1] for k in range(7)):
                    seeds.append(seed)
                    if count is not None and len(seeds) == count:
                        return seeds
    return seeds


def check_window(K: int) -> None:
    """Refuse a window length that generate_system does not build.

    ValueError below 3, BoundExceeded above WINDOW_BOUND.  This is the one
    window-length rule: every `TripleSystem` follows it on construction,
    generated, loaded (`from_json` checks it before parsing a digit) or built
    directly, and `xi_certificate` and `verify_system` take any length it
    admits.
    """
    if K < 3:
        raise ValueError("window length must be at least 3")
    if K > WINDOW_BOUND:
        raise BoundExceeded(f"window length {K} exceeds bound {WINDOW_BOUND}")


def generate_system(seed: Seed, K: int = DEFAULT_WINDOW) -> TripleSystem:
    """Generate the window x_1..x_K, symmetric unimodular triples (see `_extend`).

    K must lie in 3..WINDOW_BOUND (see check_window).
    """
    check_window(K)
    window = [seed.x1, seed.x2]
    _extend(seed, window, K)
    return TripleSystem(seed, tuple(window))


@dataclass(frozen=True, slots=True)
class XiCertificate:
    """A proof that |xi - q/p| <= 2 |d| / step, made by `xi_certificate`.

    p, q and p_next are x_{K,0}, x_{K,1} and x_{K+1,0}; d = p_K p_{K+1}
    (r_{K+1} - r_K) and step = |p_K p_{K+1}|, so the radius is twice the
    first step past the window.  Enclosures are outward roundings of this
    one proof.
    """

    p: int
    q: int
    p_next: int
    d: int
    step: int

    def bounds(self, s: int) -> tuple[int, int]:
        """Integers lo, hi with lo / 2**s <= xi <= hi / 2**s (s >= 0)."""
        n = (self.q << s) // self.p  # r_K lies in [n, n + 1) / 2**s
        e = -((-abs(self.d) << s + 1) // self.step)  # ceil(radius * 2**s)
        return n - e, n + 1 + e

    def enclosure(self, s: int) -> RationalInterval:
        """The proved interval, rounded outward to multiples of 2**-s (s >= 0).

        `system.xi` takes s near ENDPOINT_BITS; a larger s asks for more
        precision, at the cost of a gcd of its s-bit endpoints.
        """
        lo, hi = self.bounds(s)
        return RationalInterval(Fraction(lo, 1 << s), Fraction(hi, 1 << s))


def xi_certificate(system: TripleSystem) -> XiCertificate:
    """Prove an enclosure of xi = lim r_k, r_k = x_{k,1}/x_{k,0}, from x_{K-1}, x_K.

    Continue the window by x_{k+1} = x_k M_k x_{k-1} (M_k = M or its
    transpose, second row (m10, m11)) and write p_k = x_{k,0}.  If x_{K+1}
    is symmetric (its exact symmetry defect vanishes; only that and p_{K+1}
    are formed, five wide products) and det x_{K-1} = det x_K = 1,
    so is every later term (the induction in `_extend`), and:

    * Identity: x J x = J for such x, J = [[0, 1], [-1, 0]], so
      x_k J x_{k+1} = J M_k x_{k-1}, whose (0, 0) entry reads
      p_k p_{k+1} (r_{k+1} - r_k) = p_{k-1} (m10 + m11 r_{k-1}).
    * Growth invariant: p_{k+1} = g(r_k, r_{k-1}) p_k p_{k-1}, where
      g(u, v) = m00 + m01 v + m10 u + m11 u v.  On the interval J of points
      within 2 |r_{K+1} - r_K| of r_K, |g| >= G and |m10 + m11 v| <= A for
      both M_k; while the ratios stay in J, |p_{k+1}| >= G |p_k p_{k-1}|
      >= lam |p_k| for k > K, with lam = G min(|p_K|, |p_{K+1}|) >= 2.
    * Tail bound: so |r_{k+1} - r_k| <= A / (G p_k**2) for k > K; these steps
      sum to at most (4/3) A / (G p_{K+1}**2), checked to be at most
      |r_{K+1} - r_K|.  By induction the ratios stay in J, and
      |xi - r_K| <= 2 |r_{K+1} - r_K|.

    G and A are integers at the scale 2**-ENDPOINT_BITS, so every check is an
    integer comparison.  A failed check raises VerificationError.
    """
    K = system.K
    prev, last = system.x(K - 1), system.x(K)
    M = _step_matrix(system.seed.M, K + 1)
    a11, a12, a21, a22 = M.entries()
    p, q = last.x0, last.x1
    p_next = (p * a11 + q * a21) * prev.x0 + (p * a12 + q * a22) * prev.x1
    defect = symmetry_defect(M, last, prev)
    d = a21 * prev.x0 + a22 * prev.x1  # p_K p_{K+1} (r_{K+1} - r_K)
    step = abs(p * p_next)  # |r_{K+1} - r_K| = |d| / step
    if not (prev.det() == 1 == last.det() and defect == 0 and step != 0):
        raise VerificationError("enclosure not certified; increase K")
    F = ENDPOINT_BITS
    c = (q << F) // p  # J = [c - rho, c + rho] / 2**F
    rho = -((-abs(d) << F + 1) // step) + 1  # >= 2**F (2 |r_{K+1} - r_K|) + 1
    slopes = [abs((a << F) + a22 * c) for a in (a12, a21)]  # |m10 + m11 c| 2**F
    theta = (a11 << 2 * F) + ((a12 + a21) * c << F) + a22 * c * c  # 4**F g(c, c)
    # on J x J, |g - g(c, c)| <= rho (sum of slopes + |m11| rho); scale 4**F
    G = abs(theta) - rho * (sum(slopes) + abs(a22) * rho)
    A = max(slopes) + abs(a22) * rho  # 2**F A
    if not (
        G * min(abs(p), abs(p_next)) >= 2 << 2 * F
        and 4 * A * abs(p) << F <= 3 * abs(d) * G * abs(p_next)
    ):
        raise VerificationError("enclosure not certified; increase K")
    return XiCertificate(p, q, p_next, d, step)


def ratio_limit_enclosure(system: TripleSystem) -> RationalInterval:
    """The proved enclosure of xi with about ENDPOINT_BITS significant bits (`system.xi`).

    `system.certificate` rounded outward to multiples of 2**-s, with s
    chosen so that 2**(ENDPOINT_BITS - 1) < |r_K| 2**s < 2**(ENDPOINT_BITS
    + 1); once the radius is below 2**-s the width, 3 / 2**s, is at most
    2**(3 - ENDPOINT_BITS) of |xi|.
    """
    cert = system.certificate
    return cert.enclosure(max(0, ENDPOINT_BITS + cert.p.bit_length() - cert.q.bit_length()))


def growth_constant_enclosure(system: TripleSystem) -> RationalInterval:
    """Enclosure of theta = a11 + (a12+a21)*xi + a22*xi**2, from system.xi."""
    M, xi = system.seed.M, system.xi
    return (M.a11 + (M.a12 + M.a21) * xi) + M.a22 * (xi * xi)


@dataclass
class VerificationReport:
    K: int
    dets_ok: bool
    recurrence_ok: bool
    e4_dets: list[int]
    e4_abs_constant: bool
    e1_exponents: list[tuple[int, float]]
    e2_first: list[tuple[int, Fraction]]
    e2_second: list[tuple[int, Fraction]]
    xi: RationalInterval
    theta: RationalInterval
    theta_excludes_zero: bool

    def summary(self) -> dict:
        return {
            "K": self.K,
            "dets_ok": self.dets_ok,
            "recurrence_ok": self.recurrence_ok,
            "e4_dets": self.e4_dets,
            "e4_abs_constant": self.e4_abs_constant,
            "e1_exponents": [[k, round(e, 6)] for k, e in self.e1_exponents],
            "e2_first_max": _float_up(max((v for _, v in self.e2_first), default=0)),
            "e2_second_max": _float_up(max((v for _, v in self.e2_second), default=0)),
            "xi": self.xi.to_json(),
            "theta": self.theta.to_json(),
            "theta_excludes_zero": self.theta_excludes_zero,
        }


def _triple_dets(window) -> list[int]:
    """det(x_k, x_{k+1}, x_{k+2}) for each k, one cross product per two k.

    With c = x_{k+1} x x_{k+2}, the cyclic scalar triple product gives
    det(x_k, x_{k+1}, x_{k+2}) = x_k . c and
    det(x_{k+1}, x_{k+2}, x_{k+3}) = x_{k+3} . c.
    """
    t = [x.as_tuple() for x in window]
    dets = []
    for k in range(0, len(t) - 2, 2):
        (b0, b1, b2), (c0, c1, c2) = t[k + 1], t[k + 2]
        cross = (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0)
        dets.append(sum(map(mul, t[k], cross)))
        if k + 3 < len(t):
            dets.append(sum(map(mul, t[k + 3], cross)))
    return dets


def _float_up(v: Fraction) -> float:
    """The least float >= v, so a printed upper bound is still one."""
    f = float(v)
    return math.nextafter(f, math.inf) if f < v else f


def _approximation_products(system: TripleSystem, cert: XiCertificate):
    """Upper bounds of |xi*x0 - x1|*|x0| and |xi**2*x0 - x2|*|x0| for k < K.

    With x_k = (p_k, q_k, x_{k,2}) and r_k = q_k / p_k, the products are |f_k|
    and |f_k (xi + r_k) - 1|, where f_k = p_k**2 (xi - r_k); the second form
    uses det x_k = 1, p_k x_{k,2} = q_k**2 + 1.  The integer
    N_k = p_k q_{k+1} - p_{k+1} q_k = p_k p_{k+1} (r_{k+1} - r_k) gives

        f_k = p_k N_k / p_{k+1} + (p_k / p_{k+1})**2 f_{k+1},

    formed from k = K - 1 down, from |f_K| <= p_K**2 R = 2 |p_K d / p_{K+1}|
    with the certificate's radius R = 2 |d| / step.  N_k needs no product
    of window entries: by the identity in `xi_certificate`,
    N_k = m10 p_{k-1} + m11 q_{k-1} for the second row of the step matrix
    that forms x_{k+1}.  The identity and det x_k = 1 hold because
    `verify_system` has matched the window against its regeneration, whose
    terms are symmetric with det 1 (see `_extend`).

    Each f_k is a pair of integers at the scale 2**-W, W = ENDPOINT_BITS +
    8, rounded outward: every quotient is one integer division, and a
    bound exceeds its product by a few units of 2**-W.
    """
    W = ENDPOINT_BITS + 8
    x_lo, x_hi = cert.bounds(W)
    B = -((-abs(cert.p * cert.d) << W + 1) // abs(cert.p_next))  # >= |f_K| 2**W
    lo, hi = -B, B
    M = system.seed.M
    first, second = [], []
    for k in range(system.K - 1, 0, -1):  # the last index anchors the enclosure; skip it
        (p, q, _), (p_next, q_next, _) = system.x(k).as_tuple(), system.x(k + 1).as_tuple()
        if k > 1:
            _, (m10, m11) = _step_matrix(M, k + 1).rows()
            before = system.x(k - 1)
            N = m10 * before.x0 + m11 * before.x1
        else:
            N = p * q_next - p_next * q
        a = (p * N << W) // p_next  # floor(p_k N_k / p_{k+1} 2**W)
        t = (abs(p) << W) // abs(p_next)  # |p_k / p_{k+1}| 2**W in [t, t + 1)
        r2 = (t * t, (t + 1) * (t + 1))
        lo = a + (min(v * lo for v in r2) >> 2 * W)
        hi = a + 1 - (-max(v * hi for v in r2) >> 2 * W)
        first.append((k, Fraction(max(-lo, hi), 1 << W)))
        r = (q << W) // p  # r_k 2**W in [r, r + 1)
        w = (x_lo + r, x_hi + r + 1)  # (xi + r_k) 2**W
        products = [u * v for u in (lo, hi) for v in w]  # f_k (xi + r_k) 2**(2W)
        one = 1 << W
        bound = max(one - (min(products) >> W), -(-max(products) >> W) - one)
        second.append((k, Fraction(bound, one)))
    return first[::-1], second[::-1]


def verify_system(system: TripleSystem) -> VerificationReport:
    """Re-verify a window from scratch and measure the growth conditions.

    The window is regenerated from the seed and compared term by term, so
    the cost stops at the first wrong term.  Exact failures (window off the
    recurrence, vanishing triple determinant, broken enclosure) raise
    VerificationError.  Growth-rate exponents and approximation products
    are reported for inspection.  No window length is refused here: every
    seed of `find_seeds(9)` certifies and verifies at each K from 3 to 9.
    """
    K = system.K
    seed = system.seed
    regenerated = [seed.x1, seed.x2]
    if system.window[:2] != tuple(regenerated):
        raise VerificationError("window does not start at the seed")
    for k in range(3, K + 1):
        _extend(seed, regenerated, k)
        if regenerated[-1] != system.window[k - 1]:
            raise VerificationError(f"recurrence fails at term {k}")

    e4 = _triple_dets(system.window)
    if any(v == 0 for v in e4):
        raise VerificationError("vanishing triple determinant")
    e4_abs_constant = len({abs(v) for v in e4}) == 1

    e1 = []
    for k in range(1, K):
        a, b = abs(system.x(k).x0), abs(system.x(k + 1).x0)
        if a >= 2 and b >= 2:
            e1.append((k, math.log(b) / math.log(a)))

    xi, theta = system.xi, system.theta
    e2_first, e2_second = _approximation_products(system, system.certificate)
    return VerificationReport(
        K=K,
        dets_ok=True,
        recurrence_ok=True,
        e4_dets=e4,
        e4_abs_constant=e4_abs_constant,
        e1_exponents=e1,
        e2_first=e2_first,
        e2_second=e2_second,
        xi=xi,
        theta=theta,
        theta_excludes_zero=theta.excludes_zero(),
    )
